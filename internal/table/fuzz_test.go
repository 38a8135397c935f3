package table

import (
	"bytes"
	"testing"
)

// dirtyVector returns a vector of type t that already holds values, with
// stale ones past its length, as a scan's reused decode target does.
func dirtyVector(t Type) *Vector {
	v := NewVector(t, 0)
	for i := 0; i < 40; i++ {
		switch t.Physical() {
		case PhysInt:
			v.I = append(v.I, 0x7e7e7e7e)
		case PhysFloat:
			v.F = append(v.F, 7e77)
		default:
			v.S = append(v.S, "stale")
		}
	}
	switch t.Physical() {
	case PhysInt:
		v.I = v.I[:7]
	case PhysFloat:
		v.F = v.F[:7]
	default:
		v.S = v.S[:7]
	}
	return v
}

// sameValues compares two vectors through their wire form, which is
// bit-exact for floats (NaN payloads included).
func sameValues(a, b *Vector) bool {
	return a.Len() == b.Len() &&
		bytes.Equal(a.EncodeBytes(nil, 0, a.Len()), b.EncodeBytes(nil, 0, b.Len()))
}

// FuzzDecodeVector: on arbitrary bytes and counts DecodeVectorInto errs
// instead of panicking or sizing anything from an unbacked count, and
// refilling a dirty, reused vector gives exactly the values a fresh
// DecodeVector does.
func FuzzDecodeVector(f *testing.F) {
	ints := NewVector(Int64, 3)
	ints.I = append(ints.I, 1, -2, 1<<40)
	strs := NewVector(String, 3)
	strs.S = append(strs.S, "F", "", "TRUCK")
	f.Add(ints.EncodeBytes(nil, 0, 3), 3, uint8(Int64))
	f.Add(ints.EncodeBytes(nil, 0, 3), 3, uint8(Float64))
	f.Add(strs.EncodeBytes(nil, 0, 3), 3, uint8(String))
	f.Add([]byte{5, 'h'}, 1, uint8(String))
	f.Add([]byte{}, 1<<40, uint8(String))
	f.Add([]byte{}, -1, uint8(Int64))
	f.Fuzz(func(t *testing.T, data []byte, n int, typ uint8) {
		ty := Type(typ % 5)
		fresh, err := DecodeVector(ty, data, n)
		dirty := dirtyVector(ty)
		derr := DecodeVectorInto(dirty, data, n)
		if (err == nil) != (derr == nil) {
			t.Fatalf("DecodeVector err = %v, DecodeVectorInto err = %v", err, derr)
		}
		if err != nil {
			if dirty.Len() != 0 {
				t.Fatalf("a failed DecodeVectorInto left %d values behind", dirty.Len())
			}
			return
		}
		if fresh.Len() != n || !sameValues(fresh, dirty) {
			t.Fatalf("refilled vector differs from the fresh one (%d vs %d values)", dirty.Len(), fresh.Len())
		}
		if ty.Physical() != PhysString && !bytes.Equal(fresh.EncodeBytes(nil, 0, n), data) {
			t.Fatal("fixed-width column does not re-encode to its input")
		}
	})
}

// fuzzSchemas are the row shapes FuzzDecodeRows decodes under.
var fuzzSchemas = []*Schema{
	testSchema(),
	NewSchema("words", Col("w", String)),
	NewSchema("none"),
}

// FuzzDecodeRows: the same contract for the row-major form — errors, never
// panics, and a dirty reused batch refills to exactly the fresh result,
// except that the string columns shape's upper bits name as skipped read
// "" in every cell. A skip changes neither what is accepted nor any other
// column.
func FuzzDecodeRows(f *testing.F) {
	b := NewBatch(testSchema(), 2)
	b.AppendRow(IntVal(1), DecimalVal(250), FloatVal(0.5), StrVal("ab"), DateVal(9000))
	b.AppendRow(IntVal(-1), DecimalVal(0), FloatVal(-3), StrVal(""), DateVal(9001))
	f.Add(b.EncodeRows(nil, 0, 2), 2, uint8(0))
	f.Add(b.EncodeRows(nil, 0, 2), 1, uint8(0))
	f.Add([]byte{1, 'a', 0, 2, 'b', 'c'}, 3, uint8(1))
	f.Add([]byte{}, 1<<40, uint8(2))
	f.Add([]byte{0}, 1, uint8(0))
	f.Add(b.EncodeRows(nil, 0, 2), 2, uint8(3*0b1000))     // skip testSchema's string column
	f.Add([]byte{1, 'a', 0, 2, 'b', 'c'}, 3, uint8(3*1+1)) // skip the only column
	f.Add([]byte{1, 'a', 9, 'b'}, 2, uint8(3*1+1))         // a skipped cell still overruns
	f.Fuzz(func(t *testing.T, data []byte, n int, shape uint8) {
		s := fuzzSchemas[int(shape)%len(fuzzSchemas)]
		skip := uint64(int(shape) / len(fuzzSchemas))
		fresh, err := DecodeRows(s, data, n)
		dirty := NewBatch(s, 0)
		for i := range dirty.Vecs {
			dirty.Vecs[i] = dirtyVector(s.Cols[i].Type)
		}
		dirty.SetSel([]int32{1, 3})
		derr := DecodeRowsInto(dirty, data, n, skip)
		if (err == nil) != (derr == nil) {
			t.Fatalf("DecodeRows err = %v, DecodeRowsInto err = %v", err, derr)
		}
		if err != nil {
			if dirty.Rows() != 0 || dirty.PhysRows() != 0 {
				t.Fatalf("a failed DecodeRowsInto left %d rows behind", dirty.Rows())
			}
			return
		}
		if fresh.Rows() != n || dirty.Rows() != n || dirty.Sel != nil {
			t.Fatalf("rows: fresh %d, refilled %d, want %d (sel %v)", fresh.Rows(), dirty.Rows(), n, dirty.Sel)
		}
		for i := range fresh.Vecs {
			want := fresh.Vecs[i]
			if skip>>uint(i)&1 != 0 && want.Type.Physical() == PhysString {
				want = NewVector(want.Type, n)
				want.S = append(want.S, make([]string, n)...)
			}
			if fresh.Vecs[i].Len() != n || !sameValues(want, dirty.Vecs[i]) {
				t.Fatalf("column %d (skip %b): refilled batch differs from the fresh one", i, skip)
			}
		}
	})
}
