package wire

import (
	"bytes"
	"runtime"
	"testing"

	"energydb/internal/table"
)

// heapAllocated reads the bytes the heap has handed out so far. It stops
// the world to count exactly: runtime/metrics counts small objects a span
// at a time, and under the fuzzer that lag alone exceeded the budget.
func heapAllocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// sameBatch reports whether two batches have the same name, columns, rows
// and values, floats compared by their bits.
func sameBatch(a, b *table.Batch) bool {
	if a.Schema.Name != b.Schema.Name || a.Rows() != b.Rows() || len(a.Vecs) != len(b.Vecs) {
		return false
	}
	for i, v := range a.Vecs {
		if a.Schema.Cols[i] != b.Schema.Cols[i] ||
			!bytes.Equal(v.EncodeBytes(nil, 0, v.Len()), b.Vecs[i].EncodeBytes(nil, 0, b.Vecs[i].Len())) {
			return false
		}
	}
	return true
}

// FuzzWireFrame holds the client's side of the trust boundary: arbitrary
// bytes read as a frame, whose body is then decoded as a batch, a result
// and a meter report, come back as errors — never a panic, and never an
// allocation sized from a count the bytes do not back (a budget of 64
// bytes per input byte plus 128 KiB for the whole decode). The bytes are
// read through a Conn whose buffers already hold an earlier frame, so a
// hostile length prefix meets a reused buffer, as it would on a live
// connection. Every batch that decodes is re-encoded with AppendBatch,
// framed, read and decoded again, and must come back equal, byte for byte
// when encoded once more. The committed corpus
// (testdata/fuzz/FuzzWireFrame) holds honest frames of each kind, torn
// ones, and the hostile counts: a header claiming MaxFrame, 4096 columns,
// a million tenants, rows past a column's bytes.
func FuzzWireFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in bytes.Buffer
		c := NewConn(&in)
		if err := c.Send(append(c.Begin(MsgOK), make([]byte, 64)...)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Read(); err != nil {
			t.Fatal(err)
		}
		in.Write(data)

		budget := uint64(128<<10 + 64*len(data))
		before := heapAllocated()
		_, body, err := c.Read()
		if err != nil {
			body = nil
		}
		b, berr := DecodeBatch(NewReader(body))
		_, _, _, _ = DecodeResult(NewReader(body))
		_, _ = DecodeMeterReport(NewReader(body))
		if got := heapAllocated() - before; got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, budget)
		}
		if berr != nil {
			return
		}

		enc := AppendBatch(nil, b)
		in.Reset()
		if err := c.Send(append(c.Begin(MsgBatch), enc...)); err != nil {
			t.Fatal(err)
		}
		typ, body, err := c.Read()
		if err != nil || typ != MsgBatch || !bytes.Equal(body, enc) {
			t.Fatalf("re-framed batch read back as type %d, %d bytes, err %v", typ, len(body), err)
		}
		again, err := DecodeBatch(NewReader(body))
		if err != nil {
			t.Fatalf("an AppendBatch frame failed to decode: %v", err)
		}
		if !sameBatch(b, again) || !bytes.Equal(AppendBatch(nil, again), enc) {
			t.Fatal("an AppendBatch frame decoded to a different batch")
		}
	})
}
