package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"energydb/internal/hw"
	"energydb/internal/sim"
	"energydb/internal/table"
)

// The two tables the WAL tests log into: the shape of eeperf's events table
// (no string column) and one with every column type, whose name is nine
// bytes so that its bare record header is 27.
var (
	eventsSchema = table.NewSchema("events",
		table.Col("tenant", table.Int64), table.Col("day", table.Int64), table.Col("v", table.Float64))
	telemetrySchema = table.NewSchema("telemetry",
		table.Col("id", table.Int64), table.Col("note", table.String), table.Col("w", table.Float64),
		table.Col("d", table.Date), table.Col("price", table.Decimal))
	walSchemas = map[string]*table.Schema{"events": eventsSchema, "telemetry": telemetrySchema}
)

func eventsBatch(rows ...[3]float64) *table.Batch {
	b := table.NewBatch(eventsSchema, len(rows))
	for _, r := range rows {
		b.AppendRow(table.IntVal(int64(r[0])), table.IntVal(int64(r[1])), table.FloatVal(r[2]))
	}
	return b
}

func telemetryBatch(notes ...string) *table.Batch {
	b := table.NewBatch(telemetrySchema, len(notes))
	for i, n := range notes {
		b.AppendRow(table.IntVal(int64(i)-1), table.StrVal(n), table.FloatVal(float64(i)/4),
			table.DateVal(9000+int64(i)), table.DecimalVal(-250*int64(i)))
	}
	return b
}

// TestInsertRecordBytesUnchangedWithoutStrings: for a table without string
// columns the record is byte for byte what the hand-rolled codec wrote
// (hex recorded at ef19bf4), padded and not — so the log device is charged
// for the same bytes and eeperf's model clock cannot move.
func TestInsertRecordBytesUnchangedWithoutStrings(t *testing.T) {
	for _, c := range []struct {
		startRow int64
		rows     *table.Batch
		want     string
	}{
		{0, eventsBatch([3]float64{3, 17, 2.5}),
			"06006576656e74730000000000000000010000000300000003000000000000001100000000000000000000000000044000000000000000000000000000000000"},
		{4242, eventsBatch([3]float64{3, 17, 2.5}, [3]float64{-1, 0, -0.125}, [3]float64{1 << 40, 364, 1e300}),
			"06006576656e747392100000000000000300000003000000030000000000000011000000000000000000000000000440ffffffffffffffff0000000000000000000000000000c0bf00000000000100006c010000000000009c7500883ce4377e"},
	} {
		if got := hex.EncodeToString(encodeInsert(c.startRow, c.rows)); got != c.want {
			t.Errorf("%d row(s) at %d:\n got %s\nwant %s", c.rows.Rows(), c.startRow, got, c.want)
		}
	}
}

func sameBatch(a, b *table.Batch) bool {
	return a.Schema == b.Schema && a.Rows() == b.Rows() &&
		bytes.Equal(a.EncodeRows(nil, 0, a.Rows()), b.EncodeRows(nil, 0, b.Rows()))
}

// TestInsertRecordRoundTrip: decode(encode(b)) == b for every column type,
// strings holding NUL and strings that end where the padding begins
// included, in padded and unpadded records.
func TestInsertRecordRoundTrip(t *testing.T) {
	for _, b := range []*table.Batch{
		eventsBatch(),
		eventsBatch([3]float64{0, 0, 0}), // the row is all zero bytes, like the padding after it
		eventsBatch([3]float64{1, 2, 3}, [3]float64{4, 5, 6}),
		telemetryBatch(""),
		telemetryBatch("\x00"),
		telemetryBatch("a\x00b\x00", "", "\x00\x00\x00", string(make([]byte, 300))),
	} {
		payload := encodeInsert(7, b)
		if len(payload) < walMinPayload {
			t.Fatalf("%d-byte payload, want at least %d", len(payload), walMinPayload)
		}
		startRow, got, err := decodeInsert(payload, walSchemas)
		if err != nil {
			t.Fatalf("%s × %d: %v", b.Schema.Name, b.Rows(), err)
		}
		if startRow != 7 || !sameBatch(got, b) {
			t.Fatalf("%s × %d: round trip differs (startRow %d)", b.Schema.Name, b.Rows(), startRow)
		}
	}
}

// walHeader builds a record header with arbitrary counts over the named table.
func walHeader(name string, startRow uint64, nRows, nCols uint32) []byte {
	buf := binary.LittleEndian.AppendUint16(nil, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, startRow)
	buf = binary.LittleEndian.AppendUint32(buf, nRows)
	return binary.LittleEndian.AppendUint32(buf, nCols)
}

// FuzzRecoverInsert: the WAL is a trust boundary — a record is whatever
// bytes a CRC happened to bless. A fuzzed payload is committed to a real
// log behind honest records, the engine crashes, and recovery must skip
// or apply it without panicking, without sizing anything from a count the
// payload cannot back (the 27-byte seed asks for 2³²−1 rows; at ef19bf4 it
// killed the process with an out-of-memory fatal), without touching the
// checkpointed prefix, and without resurrecting rows the checkpoint
// already covers.
func FuzzRecoverInsert(f *testing.F) {
	// More seeds — records inside and on top of a checkpoint, cut short,
	// and drifted from the schema — are files under testdata/fuzz.
	f.Add(walHeader("telemetry", 0, 0xFFFFFFFF, 5), uint8(0))
	f.Add(encodeInsert(3, telemetryBatch("late", "a\x00b")), uint8(2))
	f.Add(encodeInsert(0, eventsBatch([3]float64{1, 2, 3})), uint8(4))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, payload []byte, shape uint8) {
		if start, rows, err := decodeInsert(payload, walSchemas); err == nil {
			var held int
			for _, v := range rows.Vecs {
				held += 8*(cap(v.I)+cap(v.F)) + 16*cap(v.S)
			}
			if held > 4*len(payload)+1024 {
				t.Fatalf("a %d-byte payload decoded into %d bytes of vectors", len(payload), held)
			}
			if _, again, err := decodeInsert(encodeInsert(start, rows), walSchemas); err != nil || !sameBatch(again, rows) {
				t.Fatalf("decoded batch does not survive re-encoding: %v", err)
			}
		}

		db, err := Open(Config{Server: hw.SmallServer(2), WALBatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*table.Schema{eventsSchema, telemetrySchema} {
			if err := db.CreateTable(s); err != nil {
				t.Fatal(err)
			}
		}
		// Three honest commits; shape&4 checkpoints the first two by placing
		// the table, so the third replays on top of a prefix.
		honest := telemetryBatch("one", "two\x00", "three")
		for i := 0; i < 3; i++ {
			if i == 2 && shape&4 != 0 {
				if err := db.place("telemetry"); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.insertAt(0, honest.Slice(i, i+1).Clone()).Err(); err != nil {
				t.Fatal(err)
			}
		}
		db.Srv.Eng.Go("fuzzed commit", func(p *sim.Proc) { _, _ = db.Log.Append(p, payload) })
		if err := db.Drain(); err != nil {
			t.Fatal(err)
		}

		want := map[string]int{"events": 0, "telemetry": 3}
		if start, rows, err := decodeInsert(payload, walSchemas); err == nil && start == int64(want[rows.Schema.Name]) {
			want[rows.Schema.Name] += rows.Rows()
		}
		for crash := 0; crash < 2; crash++ { // recovery is repeatable
			db.Crash(0)
			for name, n := range want {
				if got := db.mem[name].Rows(); got != n {
					t.Fatalf("crash %d: %s recovered %d rows, want %d", crash, name, got, n)
				}
			}
			if !sameBatch(db.mem["telemetry"].Slice(0, 3), honest) {
				t.Fatalf("crash %d: the honest commits did not survive the fuzzed one", crash)
			}
		}
	})
}
