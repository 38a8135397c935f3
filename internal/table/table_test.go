package table

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema("t",
		Col("id", Int64),
		Col("price", Decimal),
		Col("ratio", Float64),
		ColW("name", String, 12),
		Col("day", Date),
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema()
	if s.ColIndex("ratio") != 2 || s.ColIndex("nope") != -1 {
		t.Fatal("ColIndex")
	}
	if s.MustColIndex("day") != 4 {
		t.Fatal("MustColIndex")
	}
	proj, idx, err := s.Project("name", "id")
	if err != nil || len(proj.Cols) != 2 || idx[0] != 3 || idx[1] != 0 {
		t.Fatalf("Project: %v %v %v", proj, idx, err)
	}
	if _, _, err := s.Project("ghost"); err == nil {
		t.Fatal("Project of unknown column should error")
	}
	if w := s.RowWidth(); w != 8+8+8+12+8 {
		t.Fatalf("RowWidth = %d", w)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate column")
		}
	}()
	NewSchema("bad", Col("x", Int64), Col("x", Float64))
}

func TestMustColIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testSchema().MustColIndex("ghost")
}

func TestValueCompare(t *testing.T) {
	nan, otherNaN := math.NaN(), math.Float64frombits(0xfff0000000000abc)
	negZero, subnormal := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	tests := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{FloatVal(1.5), FloatVal(2.5), -1},
		{StrVal("a"), StrVal("b"), -1},
		{DateVal(100), IntVal(100), 0},    // same physical class
		{DecimalVal(250), IntVal(200), 1}, // same physical class
		{FloatVal(negZero), FloatVal(0), 0},
		{FloatVal(nan), FloatVal(otherNaN), 0},
		{FloatVal(nan), FloatVal(math.Inf(1)), 1},
		{FloatVal(math.Inf(-1)), FloatVal(otherNaN), -1},
		{FloatVal(math.Inf(-1)), FloatVal(-math.MaxFloat64), -1},
		{FloatVal(0), FloatVal(subnormal), -1},
		{FloatVal(-subnormal), FloatVal(negZero), -1},
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}

	// Over every triple of the awkward floats the order is a strict weak
	// order: antisymmetric, and a ≤ b ≤ c gives a ≤ c, strictly when either
	// step is strict.
	floats := []float64{nan, otherNaN, negZero, 0, subnormal, -subnormal, math.Inf(1), math.Inf(-1), 1.5, -1.5}
	for _, a := range floats {
		for _, b := range floats {
			ab := FloatVal(a).Compare(FloatVal(b))
			if ba := FloatVal(b).Compare(FloatVal(a)); ab != -ba {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			for _, c := range floats {
				bc, ac := FloatVal(b).Compare(FloatVal(c)), FloatVal(a).Compare(FloatVal(c))
				if ab <= 0 && bc <= 0 && ac != min(ab, bc) {
					t.Errorf("Compare(%v, %v) = %d, Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, c, bc, a, c, ac)
				}
			}
		}
	}
}

func TestValueCompareCrossClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	IntVal(1).Compare(StrVal("x"))
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{IntVal(42), "42"},
		{DecimalVal(1234), "12.34"},
		{DecimalVal(-250), "-2.50"},
		{DecimalVal(-29), "-0.29"},
		{DecimalVal(-129), "-1.29"},
		{DecimalVal(0), "0.00"},
		{DecimalVal(math.MinInt64), "-92233720368547758.08"},
		{StrVal("hi"), "hi"},
		{FloatVal(2.5), "2.5"},
		{DateVal(0), "0"},
	}
	for _, tc := range tests {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestBatchAppendAndRow(t *testing.T) {
	s := testSchema()
	b := NewBatch(s, 4)
	b.AppendRow(IntVal(1), DecimalVal(100), FloatVal(0.5), StrVal("ann"), DateVal(10))
	b.AppendRow(IntVal(2), DecimalVal(200), FloatVal(1.5), StrVal("bob"), DateVal(20))
	if b.Rows() != 2 {
		t.Fatalf("Rows = %d", b.Rows())
	}
	row := b.Row(1)
	if row[0].I != 2 || row[3].S != "bob" || row[2].F != 1.5 {
		t.Fatalf("Row(1) = %v", row)
	}
}

func TestBatchAppendRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBatch(testSchema(), 1).AppendRow(IntVal(1))
}

func TestVectorTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVector(Int64, 1).Append(StrVal("x"))
}

func TestTableSliceSharesData(t *testing.T) {
	s := testSchema()
	tab := NewTable(s)
	for i := 0; i < 10; i++ {
		tab.AppendRow(IntVal(int64(i)), DecimalVal(int64(i*100)), FloatVal(float64(i)),
			StrVal("row"), DateVal(int64(i)))
	}
	b := tab.Slice(3, 7)
	if b.Rows() != 4 || b.Vecs[0].I[0] != 3 {
		t.Fatalf("slice = %v rows, first id %v", b.Rows(), b.Vecs[0].I)
	}
	// Views share memory: mutating the table shows through the batch.
	tab.Column(0).I[3] = 99
	if b.Vecs[0].I[0] != 99 {
		t.Fatal("Slice copied instead of sharing")
	}
}

func TestColumnBytesRoundTrip(t *testing.T) {
	s := testSchema()
	tab := NewTable(s)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 257; i++ {
		tab.AppendRow(
			IntVal(rng.Int63()),
			DecimalVal(rng.Int63n(1e6)),
			FloatVal(rng.NormFloat64()),
			StrVal(randWord(rng)),
			DateVal(int64(rng.Intn(10000))),
		)
	}
	for ci := range s.Cols {
		v := tab.Column(ci)
		enc := v.EncodeBytes(nil, 0, v.Len())
		if int64(len(enc)) != v.ByteSize(0, v.Len()) {
			t.Fatalf("col %d: ByteSize %d != encoded %d", ci, v.ByteSize(0, v.Len()), len(enc))
		}
		dec, err := DecodeVector(s.Cols[ci].Type, enc, v.Len())
		if err != nil {
			t.Fatalf("col %d: %v", ci, err)
		}
		if !reflect.DeepEqual(dec, v) {
			t.Fatalf("col %d: round trip mismatch", ci)
		}
	}
}

func TestRowBytesRoundTrip(t *testing.T) {
	s := testSchema()
	b := NewBatch(s, 8)
	for i := 0; i < 8; i++ {
		b.AppendRow(IntVal(int64(i)), DecimalVal(int64(100*i)), FloatVal(float64(i)/3),
			StrVal(string(rune('a'+i))), DateVal(int64(9000+i)))
	}
	enc := b.EncodeRows(nil, 0, b.Rows())
	dec, err := DecodeRows(s, enc, b.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, b) {
		t.Fatal("row round trip mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeVector(Int64, []byte{1, 2, 3}, 1); err == nil {
		t.Error("short int column should error")
	}
	if _, err := DecodeVector(String, []byte{5, 'h'}, 1); err == nil {
		t.Error("truncated string should error")
	}
	if _, err := DecodeVector(String, []byte{1, 'h', 'x'}, 1); err == nil {
		t.Error("trailing bytes should error")
	}
	if _, err := DecodeRows(testSchema(), []byte{0}, 1); err == nil {
		t.Error("truncated row should error")
	}
}

// Property: column encode/decode round-trips for arbitrary int64 data, and
// row encode of a batch equals the concatenation of its per-row encodes.
func TestEncodeProperties(t *testing.T) {
	f := func(vals []int64, strs []string) bool {
		v := NewVector(Int64, len(vals))
		v.I = append(v.I, vals...)
		enc := v.EncodeBytes(nil, 0, v.Len())
		dec, err := DecodeVector(Int64, enc, v.Len())
		if err != nil || !reflect.DeepEqual(dec.I, v.I) {
			return false
		}
		sv := NewVector(String, len(strs))
		sv.S = append(sv.S, strs...)
		senc := sv.EncodeBytes(nil, 0, sv.Len())
		sdec, err := DecodeVector(String, senc, sv.Len())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(sdec.S, sv.S)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randWord(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
