package compress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// putLE64 appends one little-endian word: how the tests build int columns.
func putLE64(dst []byte, v int64) []byte { return appendLE64s(dst, []int64{v}) }

func allCodecs() []Codec { return []Codec{Raw, Delta, Bitpack, Dict, LZ} }

func roundTrip(t *testing.T, c Codec, src []byte) {
	t.Helper()
	enc := c.Encode(nil, src)
	dec, err := c.Decode(nil, enc)
	if err != nil {
		t.Fatalf("%s: decode error: %v (len %d)", c.Name(), err, len(src))
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("%s: round trip mismatch: %d bytes in, %d out", c.Name(), len(src), len(dec))
	}
}

func TestRoundTripStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Integer column (little-endian 8-byte values, mildly increasing):
	ints := make([]byte, 0, 8*2000)
	v := int64(1000)
	for i := 0; i < 2000; i++ {
		v += int64(rng.Intn(50))
		ints = putLE64(ints, v)
	}
	// Low-cardinality length-prefixed strings:
	words := []string{"URGENT", "HIGH", "MEDIUM", "LOW", "NOT SPECIFIED"}
	strs := make([]byte, 0, 16*2000)
	for i := 0; i < 2000; i++ {
		w := words[rng.Intn(len(words))]
		strs = putUvarint(strs, uint64(len(w)))
		strs = append(strs, w...)
	}
	// Runny bytes:
	runs := bytes.Repeat([]byte{0, 0, 0, 0, 7, 7, 7, 9}, 512)

	for _, c := range allCodecs() {
		for _, src := range [][]byte{ints, strs, runs, nil, {1}, bytes.Repeat([]byte{255}, 3)} {
			roundTrip(t, c, src)
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	for _, c := range allCodecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(src []byte) bool {
				enc := c.Encode(nil, src)
				dec, err := c.Decode(nil, enc)
				return err == nil && bytes.Equal(dec, src)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCompressionRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	// Sorted keys: Delta and Bitpack should crush these.
	keys := make([]byte, 0, 8*4096)
	for i := 0; i < 4096; i++ {
		keys = putLE64(keys, int64(i*4+rng.Intn(4)))
	}
	if r := Ratio(Delta, keys); r > 0.3 {
		t.Errorf("delta ratio on sorted keys = %v, want < 0.3", r)
	}
	if r := Ratio(Bitpack, keys); r > 0.3 {
		t.Errorf("bitpack ratio on sorted keys = %v, want < 0.3", r)
	}

	// Low-cardinality strings: Dict should get close to 1 byte/value.
	words := []string{"F", "O", "P"}
	strs := make([]byte, 0, 2*4096)
	for i := 0; i < 4096; i++ {
		w := words[rng.Intn(len(words))]
		strs = putUvarint(strs, uint64(len(w)))
		strs = append(strs, w...)
	}
	if r := Ratio(Dict, strs); r > 0.6 {
		t.Errorf("dict ratio on low-cardinality strings = %v, want < 0.6", r)
	}

	// Repetitive text: LZ should find matches.
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 200)
	if r := Ratio(LZ, text); r > 0.2 {
		t.Errorf("lz ratio on repetitive text = %v, want < 0.2", r)
	}

	// Random bytes are incompressible; codecs must not blow up too much.
	rnd := make([]byte, 16384)
	rng.Read(rnd)
	for _, c := range allCodecs() {
		if r := Ratio(c, rnd); r > 2.2 {
			t.Errorf("%s expands random data by %v", c.Name(), r)
		}
	}
}

func TestRatioEmptyInput(t *testing.T) {
	if Ratio(LZ, nil) != 1 {
		t.Fatal("empty input ratio should be 1")
	}
}

func TestDecodeCorruptInput(t *testing.T) {
	// Random garbage must either decode to something or fail cleanly; it
	// must never panic. Structured codecs with markers should mostly fail.
	rng := rand.New(rand.NewSource(99))
	for _, c := range allCodecs() {
		for i := 0; i < 200; i++ {
			garbage := make([]byte, rng.Intn(64))
			rng.Read(garbage)
			_, _ = c.Decode(nil, garbage) // must not panic
		}
	}
	if _, err := Dict.Decode(nil, []byte{0x77, 1, 2}); err != ErrCorrupt {
		t.Errorf("dict should reject unknown marker, got %v", err)
	}
	if _, err := LZ.Decode(nil, []byte{1}); err != ErrCorrupt {
		t.Errorf("lz should reject truncated stream, got %v", err)
	}
}

func TestHugeLengthVarintDoesNotPanic(t *testing.T) {
	// Regression: a length varint >= 2^63 wrapped negative through int()
	// and bypassed bounds checks, panicking in Dict's parseStrings.
	huge := putUvarint(nil, 1<<63)
	huge = append(huge, 'x')
	for _, c := range allCodecs() {
		_ = c.Encode(nil, huge)    // must not panic
		_, _ = c.Decode(nil, huge) // must not panic
	}
}

func TestCostModelsSane(t *testing.T) {
	// Decode must be cheaper than encode; Raw must be cheapest; LZ encode
	// must be the most expensive (it is the knob the optimizer weighs).
	for _, c := range allCodecs() {
		cm := c.Cost()
		if cm.EncodeCyclesPerByte <= 0 || cm.DecodeCyclesPerByte <= 0 {
			t.Errorf("%s: non-positive cost model %+v", c.Name(), cm)
		}
		if cm.DecodeCyclesPerByte > cm.EncodeCyclesPerByte {
			t.Errorf("%s: decode costlier than encode: %+v", c.Name(), cm)
		}
		if c != Raw && cm.DecodeCyclesPerByte <= Raw.Cost().DecodeCyclesPerByte {
			t.Errorf("%s: decode cheaper than raw copy", c.Name())
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(x uint64) bool {
		b := putUvarint(nil, x)
		y, k := uvarint(b)
		return k == len(b) && y == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, k := uvarint(nil); k != 0 {
		t.Fatal("empty varint should report 0")
	}
	if _, k := uvarint(bytes.Repeat([]byte{0x80}, 11)); k != -1 {
		t.Fatal("overlong varint should report -1")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
}

func TestDictPreservesHighCardinality(t *testing.T) {
	// Unique strings: dictionary gains nothing but must stay correct.
	var src []byte
	for i := 0; i < 500; i++ {
		s := []byte{byte(i), byte(i >> 8), byte(i % 7)}
		src = putUvarint(src, uint64(len(s)))
		src = append(src, s...)
	}
	roundTrip(t, Dict, src)
}

func TestLZOverlappingMatch(t *testing.T) {
	// aaaa... forces self-overlapping matches, the classic LZ edge case.
	src := bytes.Repeat([]byte{'a'}, 1000)
	roundTrip(t, LZ, src)
	if r := Ratio(LZ, src); r > 0.05 {
		t.Errorf("run-of-a ratio = %v", r)
	}
}

func BenchmarkCodecs(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 0, 8*8192)
	for i := 0; i < 8192; i++ {
		src = putLE64(src, int64(rng.Intn(10000)))
	}
	for _, c := range allCodecs() {
		enc := c.Encode(nil, src)
		b.Run(c.Name()+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				c.Encode(nil, src)
			}
		})
		b.Run(c.Name()+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(nil, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
