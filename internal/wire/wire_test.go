package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"energydb/internal/fault"
	"energydb/internal/table"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := AppendStr(AppendU64(nil, 42), "hello")
	if err := WriteFrame(&buf, MsgPrepare, body); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgOK, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgPrepare || !bytes.Equal(got, body) {
		t.Fatalf("frame 1: typ=%d body=%v err=%v", typ, got, err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != MsgOK || len(got) != 0 {
		t.Fatalf("frame 2: typ=%d body=%v err=%v", typ, got, err)
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream read = %v, want io.EOF", err)
	}
}

// TestTornFrames: every truncation point of a valid frame must fail
// cleanly — io.EOF at a frame boundary, io.ErrUnexpectedEOF inside a
// header or body — never a hang or a garbage decode.
func TestTornFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgBatch, AppendStr(nil, "payload")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(whole))
		}
		if err != io.ErrUnexpectedEOF && err != io.EOF {
			t.Fatalf("truncation at %d: err = %v", cut, err)
		}
	}
}

func TestFrameGuards(t *testing.T) {
	// Oversized length prefix must be rejected before allocation.
	hdr := AppendU32(nil, MaxFrame+1)
	if _, _, err := ReadFrame(bytes.NewReader(append(hdr, 0))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized frame err = %v, want ErrProtocol", err)
	}
	// Zero-length frames carry no type byte.
	if _, _, err := ReadFrame(bytes.NewReader(AppendU32(nil, 0))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("zero frame err = %v, want ErrProtocol", err)
	}
	if err := WriteFrame(io.Discard, MsgBatch, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

// TestTypedErrorRoundTrip: every fault sentinel must survive
// encode → decode with errors.Is intact, the property the client driver
// depends on.
func TestTypedErrorRoundTrip(t *testing.T) {
	sentinels := []error{
		fault.ErrDeviceFailed,
		fault.ErrTransientIO,
		fault.ErrDeadlineExceeded,
		fault.ErrCanceled,
		fault.ErrMemBudget,
		fault.ErrCrashed,
		fault.ErrType,
	}
	for _, want := range sentinels {
		wrapped := fmt.Errorf("query q6 on disk0: %w", want)
		code := CodeFor(wrapped)
		if code == CodeOK || code == CodeGeneric {
			t.Fatalf("%v classified as code %d", want, code)
		}
		back := DecodeError(code, wrapped.Error())
		if !errors.Is(back, want) {
			t.Fatalf("decoded error %v does not match sentinel %v", back, want)
		}
		// And not any *other* sentinel.
		for _, other := range sentinels {
			if other != want && errors.Is(back, other) {
				t.Fatalf("decoded %v also matches %v", want, other)
			}
		}
		//lint:ignore errtaxonomy the round-trip test asserts the codec preserves the message verbatim
		if back.Error() != wrapped.Error() {
			t.Fatalf("message %q != %q", back.Error(), wrapped.Error())
		}
	}
	if got := CodeFor(errors.New("boring")); got != CodeGeneric {
		t.Fatalf("plain error code = %d", got)
	}
	if got := CodeFor(nil); got != CodeOK {
		t.Fatalf("nil error code = %d", got)
	}
	if DecodeError(CodeOK, "") != nil {
		t.Fatal("CodeOK decoded to a non-nil error")
	}
}

func testBatch() *table.Batch {
	s := table.NewSchema("t",
		table.Col("id", table.Int64),
		table.Col("price", table.Decimal),
		table.Col("x", table.Float64),
		table.Col("name", table.String),
		table.Col("day", table.Date),
	)
	b := table.NewBatch(s, 4)
	b.AppendRow(table.IntVal(1), table.DecimalVal(199), table.FloatVal(1.5), table.StrVal("ann"), table.DateVal(100))
	b.AppendRow(table.IntVal(2), table.DecimalVal(-5), table.FloatVal(-0.25), table.StrVal(""), table.DateVal(0))
	b.AppendRow(table.IntVal(3), table.DecimalVal(0), table.FloatVal(3e18), table.StrVal("bob with spaces"), table.DateVal(-7))
	return b
}

func TestBatchRoundTrip(t *testing.T) {
	b := testBatch()
	body := AppendBatch(nil, b)
	got, err := DecodeBatch(NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != b.Rows() || got.Schema.Name != "t" || len(got.Vecs) != len(b.Vecs) {
		t.Fatalf("shape: %d rows, %d cols, schema %q", got.Rows(), len(got.Vecs), got.Schema.Name)
	}
	for i, c := range b.Schema.Cols {
		g := got.Schema.Cols[i]
		if g != c {
			t.Fatalf("col %d schema %+v != %+v", i, g, c)
		}
	}
	want := AppendBatch(nil, got)
	if !bytes.Equal(body, want) {
		t.Fatal("re-encoding the decoded batch differs")
	}
}

// TestBatchSelCompaction: a batch carrying a selection must ship only
// its logical rows.
func TestBatchSelCompaction(t *testing.T) {
	b := testBatch()
	b.SetSel([]int32{2, 0})
	got, err := DecodeBatch(NewReader(AppendBatch(nil, b)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", got.Rows())
	}
	if got.Vecs[0].I[0] != 3 || got.Vecs[0].I[1] != 1 {
		t.Fatalf("ids = %v, want [3 1]", got.Vecs[0].I)
	}
	if got.Vecs[3].S[0] != "bob with spaces" || got.Vecs[3].S[1] != "ann" {
		t.Fatalf("names = %v", got.Vecs[3].S)
	}
}

// TestBatchTornBodies: truncating the encoded batch at every byte must
// produce an error, never a partial batch or a panic.
func TestBatchTornBodies(t *testing.T) {
	body := AppendBatch(nil, testBatch())
	for cut := 0; cut < len(body); cut++ {
		if got, err := DecodeBatch(NewReader(body[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded a %d-row batch", cut, len(body), got.Rows())
		}
	}
	// Corrupt the column type of the first column.
	bad := append([]byte(nil), body...)
	// name("t")=2 bytes, ncols u32, nrows u32, colname("id")=3 bytes → type at offset 13.
	bad[13] = 200
	if _, err := DecodeBatch(NewReader(bad)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("corrupt type err = %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := Result{
		Elapsed: 1.25, Joules: 300.5, Attributed: 120.25, Marginal: 100,
		Shared: 20.25, Wait: 0.5, Granted: 4, RowCount: 9001, Retries: 2,
	}
	body := AppendResult(nil, in, CodeDeadlineExceeded, "too slow")
	out, code, msg, err := DecodeResult(NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if out != in || code != CodeDeadlineExceeded || msg != "too slow" {
		t.Fatalf("got %+v code=%d msg=%q", out, code, msg)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, _, _, err := DecodeResult(NewReader(body[:cut])); err == nil {
			t.Fatalf("truncated result at %d decoded", cut)
		}
	}
}

func TestMeterReportRoundTrip(t *testing.T) {
	in := MeterReport{
		Now: 86400, MeterJ: 1e6, UnattributedJ: 2.5e5,
		Tenants: []TenantBill{
			{Tenant: "acme", AttributedJ: 5e5, Queries: 120, Inserts: 40},
			{Tenant: "zeta", AttributedJ: 2.5e5, Queries: 60, Inserts: 0},
		},
	}
	body := AppendMeterReport(nil, in)
	out, err := DecodeMeterReport(NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if out.Now != in.Now || out.MeterJ != in.MeterJ || out.UnattributedJ != in.UnattributedJ || len(out.Tenants) != 2 {
		t.Fatalf("got %+v", out)
	}
	for i := range in.Tenants {
		if out.Tenants[i] != in.Tenants[i] {
			t.Fatalf("tenant %d: %+v != %+v", i, out.Tenants[i], in.Tenants[i])
		}
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader(AppendU64(nil, 7))
	if r.U64() != 7 || r.Err() != nil {
		t.Fatal("first read failed")
	}
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("read past end did not fail")
	}
	// Subsequent reads stay failed and zero-valued.
	if r.Str() != "" || r.U32() != 0 || r.Err() == nil {
		t.Fatal("sticky error not sticky")
	}
	if !errors.Is(r.Err(), ErrProtocol) {
		t.Fatalf("reader error %v not a protocol error", r.Err())
	}
}
