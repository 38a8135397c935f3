package compress

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"energydb/internal/table"
)

// The two decoder crashers this file's corpus was seeded from: an LZ match
// offset of 2^63 or more used to wrap into a plausible position, and a
// dictionary symbol count was used to size a slice unchecked.
var (
	lzWrappedOffset  = []byte{1, 'a', 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	dictHugeSymCount = []byte{0xD1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
)

// Three inputs that only the paths new with selection-driven decode get
// wrong when one of their checks is dropped: an LZ stream cut off right
// after an 8-byte literal run (a fast token must not read its headers past
// the input), an LZ stream whose general token stops 8 bytes short of the
// decode budget and is followed by 16-byte fast tokens (which must honour
// the budget too), and a dictionary block whose middle cell names a symbol
// that does not exist (it is corrupt also when no selected cell is near).
var (
	lzCutAfterLiterals = []byte{8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}
	lzFastPastBudget   = append(putUvarint([]byte{8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}, 1<<20-16),
		8, 0, 16, 8, 0, 16, 8, 0, 16, 8, 0, 16, 8, 0, 0)
	dictBadSkippedIndex = []byte{dictMarker, 1, 1, 'a', 3, 0, 5, 0}
)

func TestDecodeCrashersReturnErrCorrupt(t *testing.T) {
	if _, err := LZ.Decode(nil, lzWrappedOffset); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LZ.Decode of a wrapped offset: err = %v, want ErrCorrupt", err)
	}
	if _, err := Dict.Decode(nil, dictHugeSymCount); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Dict.Decode of a huge symbol count: err = %v, want ErrCorrupt", err)
	}
	for name, in := range map[string][]byte{"cut after its literals": lzCutAfterLiterals, "past its budget": lzFastPastBudget} {
		if _, err := LZ.Decode(make([]byte, 0, 2<<20), in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("LZ.Decode of a stream %s, with room to spare: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := Dict.(StringDecoder).DecodeStrings(nil, dictBadSkippedIndex, nil, []int32{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Dict.DecodeStrings of a bad index in an unselected cell: err = %v, want ErrCorrupt", err)
	}
	if _, err := Dict.(StringDecoder).DecodeStrings(nil, dictHugeSymCount, nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Dict.DecodeStrings of a huge symbol count: err = %v, want ErrCorrupt", err)
	}
	// A legal-looking count the input cannot back must fail before it
	// sizes anything: 2^40 values, 2^40 symbols.
	big := putUvarint(nil, 1<<40)
	for _, c := range []Codec{Delta, Bitpack} {
		if _, err := c.(Int64Decoder).DecodeInt64s(nil, big); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s.DecodeInt64s of 2^40 values in %d bytes: err = %v, want ErrCorrupt", c.Name(), len(big), err)
		}
	}
	if _, err := Dict.Decode(nil, append([]byte{dictMarker}, big...)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Dict.Decode of 2^40 symbols: err = %v, want ErrCorrupt", err)
	}
}

// stringStream is the wire image of a string column.
func stringStream(vals ...string) []byte {
	var out []byte
	for _, s := range vals {
		out = putUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	return out
}

// lzDecodeReference is LZ's decode loop as it was before the fast token:
// three uvarint headers and an append per token, nothing else. The fuzz
// target holds lzCodec.Decode to it, output and error-ness.
func lzDecodeReference(dst, src []byte) ([]byte, error) {
	base := len(dst)
	budget := uint64(decodeBudget(len(src)))
	for {
		produced := uint64(len(dst) - base)
		litLen, k := uvarint(src)
		if k <= 0 || litLen > uint64(len(src)-k) || litLen > budget-produced {
			return dst, ErrCorrupt
		}
		src = src[k:]
		dst = append(dst, src[:litLen]...)
		src = src[litLen:]
		produced += litLen

		mlen, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		if mlen == 0 {
			if len(src) != 0 {
				return dst, ErrCorrupt
			}
			return dst, nil
		}
		off, k := uvarint(src)
		if k <= 0 {
			return dst, ErrCorrupt
		}
		src = src[k:]
		if off == 0 || off > produced || mlen > budget-produced {
			return dst, ErrCorrupt
		}
		start := len(dst)
		pos := start - int(off)
		dst = grow(dst, int(mlen))
		for n := 0; n < int(mlen); {
			n += copy(dst[start+n:], dst[pos:start+n])
		}
	}
}

// FuzzCodecDecode holds every codec to the decode layer's
// contract on arbitrary bytes: Decode never panics and never exceeds
// decodeBudget; Decode(Encode(x)) == x; decoding into a dirty destination
// with room to spare — where LZ's fast token runs — gives what decoding
// into nil does, and for LZ what the reference loop does; and a typed entry
// point yields exactly the values Decode followed by table.DecodeVector
// would, also when appending to a dirty, reused destination and, for
// strings, under any selection.
func FuzzCodecDecode(f *testing.F) {
	f.Add(lzWrappedOffset)
	f.Add(dictHugeSymCount)
	f.Add([]byte{})
	ints := appendLE64s(nil, []int64{3, 5, 8, 13, 1 << 40, -7, -7, -7})
	strs := stringStream("F", "O", "F", "", "TRUCK", "F")
	for _, c := range allCodecs() {
		f.Add(c.Encode(nil, ints))
		f.Add(c.Encode(nil, strs))
		f.Add(c.Encode(nil, append(slices.Clone(ints), 1, 2, 3))) // a raw tail
	}
	// What the retired run-length codec made of the same three shapes:
	// (length, byte) pairs, kept as inputs like the corpus's -rle entry.
	f.Add([]byte("\x01\x03\a\x00\x01\x05\a\x00\x01\b\a\x00\x01\r\f\x00\x01\x01\x02\x00\x01\xf9\a\xff\x01\xf9\a\xff\x01\xf9\a\xff"))
	f.Add([]byte("\x01\x01\x01F\x01\x01\x01O\x01\x01\x01F\x01\x00\x01\x05\x01T\x01R\x01U\x01C\x01K\x01\x01\x01F"))
	f.Add([]byte("\x01\x03\a\x00\x01\x05\a\x00\x01\b\a\x00\x01\r\f\x00\x01\x01\x02\x00\x01\xf9\a\xff\x01\xf9\a\xff\x01\xf9\a\xff\x01\x01\x01\x02\x01\x03"))
	f.Add(lzCutAfterLiterals)
	f.Add(lzFastPastBudget)
	f.Add(dictBadSkippedIndex)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range allCodecs() {
			out, err := c.Decode(nil, data)
			if len(out) > decodeBudget(len(data)) {
				t.Fatalf("%s: %d bytes in, %d out: over the decode budget", c.Name(), len(data), len(out))
			}
			if back, rerr := c.Decode(nil, c.Encode(nil, data)); rerr != nil || !bytes.Equal(back, data) {
				t.Fatalf("%s: round trip of %d bytes: err %v, %d bytes back", c.Name(), len(data), rerr, len(back))
			}
			// Decode appends: a non-empty dst keeps its prefix.
			if again, aerr := c.Decode([]byte("pre"), data); (aerr == nil) != (err == nil) ||
				(err == nil && !bytes.Equal(again, append([]byte("pre"), out...))) {
				t.Fatalf("%s: appending decode differs from decode into nil", c.Name())
			}
			// A scan's destination: reused, so full of another block's
			// bytes, and pre-sized, so nothing need grow.
			room := bytes.Repeat([]byte{0xa5}, 3+len(out)+32)
			if sized, serr := c.Decode(append(room[:0], "pre"...), data); (serr == nil) != (err == nil) ||
				(err == nil && !bytes.Equal(sized, append([]byte("pre"), out...))) {
				t.Fatalf("%s: decode into a dirty pre-sized destination differs from decode into nil (err %v / %v)", c.Name(), serr, err)
			}
			if c == LZ {
				if ref, rerr := lzDecodeReference(nil, data); (rerr == nil) != (err == nil) || (err == nil && !bytes.Equal(ref, out)) {
					t.Fatalf("lz: Decode differs from the reference loop (err %v / %v)", err, rerr)
				}
			}
			switch dec := c.(type) {
			case Int64Decoder:
				checkInt64s(t, c.Name(), dec, data, out, err)
			case StringDecoder:
				checkStrings(t, c.Name(), dec, data, out, err)
			}
		}
	})
}

// checkInt64s compares DecodeInt64s with (out, err) = Decode(nil, data).
func checkInt64s(t *testing.T, name string, dec Int64Decoder, data, out []byte, err error) {
	dirty := make([]int64, 64)
	for i := range dirty {
		dirty[i] = 0x7e7e7e7e // stale values past the length
	}
	dirty = append(dirty[:0], 41, 42)
	got, terr := dec.DecodeInt64s(dirty, data)
	var want *table.Vector
	if err == nil {
		want, err = table.DecodeVector(table.Int64, out, len(out)/8)
	}
	if (terr == nil) != (err == nil) {
		t.Fatalf("%s: DecodeInt64s err = %v, Decode+DecodeVector err = %v", name, terr, err)
	}
	if len(got) < 2 || got[0] != 41 || got[1] != 42 {
		t.Fatalf("%s: DecodeInt64s clobbered the destination's prefix: %v", name, got[:min(2, len(got))])
	}
	if terr == nil && !slices.Equal(got[2:], want.I) {
		t.Fatalf("%s: DecodeInt64s values differ from Decode+DecodeVector", name)
	}
}

// checkStrings compares DecodeStrings, through a symbol table already used
// for another block, with (out, err) = Decode(nil, data).
func checkStrings(t *testing.T, name string, dec StringDecoder, data, out []byte, err error) {
	var tab SymbolTable
	if _, perr := dec.DecodeStrings(nil, Dict.Encode(nil, stringStream("stale", "F", "stale")), &tab, nil); perr != nil {
		t.Fatal(perr)
	}
	dirty := append(make([]string, 0, 64), "kept")
	got, terr := dec.DecodeStrings(dirty, data, &tab, nil)
	if len(got) < 1 || got[0] != "kept" {
		t.Fatalf("%s: DecodeStrings clobbered the destination's prefix", name)
	}
	checkSelections(t, name, dec, data, &tab, slices.Clone(got[1:]), terr)
	var want *table.Vector
	if err == nil {
		if vals, ok := parseStrings(out); !ok {
			err = ErrCorrupt
		} else {
			want, err = table.DecodeVector(table.String, out, len(vals))
		}
	}
	if err != nil {
		// The one block Decode refuses and DecodeStrings may take is one
		// whose byte image would exceed the budget; its strings share
		// symbols, so they cost 16 bytes a value whatever they expand to.
		if terr == nil {
			size := 0
			for _, s := range got[1:] {
				size += uvarintLen(uint64(len(s))) + len(s)
			}
			if size <= decodeBudget(len(data)) {
				t.Fatalf("%s: DecodeStrings accepted a block Decode+DecodeVector refuses (%v)", name, err)
			}
		}
		return
	}
	if terr != nil {
		t.Fatalf("%s: DecodeStrings err = %v on a block Decode+DecodeVector accepts", name, terr)
	}
	if !slices.Equal(got[1:], want.S) {
		t.Fatalf("%s: DecodeStrings values differ from Decode+DecodeVector", name)
	}
}

// checkSelections holds DecodeStrings under a selection to the full decode
// (full, ferr) of the same block: for no cell, one cell, every cell and a
// random subset, the selected cells equal the full decode's, the others
// keep what the destination held, and the error result is the same. The
// selections are drawn from the input, so a crasher replays.
func checkSelections(t *testing.T, name string, dec StringDecoder, data []byte, tab *SymbolTable, full []string, ferr error) {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	n := len(full)
	every, some := make([]int32, n), []int32{}
	for i := range every {
		every[i] = int32(i)
		if rng.Intn(3) == 0 {
			some = append(some, int32(i))
		}
	}
	sels := [][]int32{{}, every, some}
	if n > 0 {
		sels = append(sels, []int32{int32(rng.Intn(n))})
	}
	const untouched = "\x00untouched"
	for _, sel := range sels {
		dst := make([]string, 1+n+4)
		for i := range dst {
			dst[i] = untouched
		}
		dst[0] = "kept"
		got, err := dec.DecodeStrings(dst[:1], data, tab, sel)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("%s: DecodeStrings selecting %d of %d cells: err = %v, selecting all: %v", name, len(sel), n, err, ferr)
		}
		if err != nil {
			continue
		}
		if len(got) != 1+n || got[0] != "kept" {
			t.Fatalf("%s: DecodeStrings selecting %d cells returned %d cells of %d, prefix %q", name, len(sel), len(got)-1, n, got[0])
		}
		k := 0
		for i, s := range got[1:] {
			want := untouched
			if k < len(sel) && int(sel[k]) == i {
				want = full[i]
				k++
			}
			if s != want {
				t.Fatalf("%s: DecodeStrings selecting %d of %d cells: cell %d = %q, want %q", name, len(sel), n, i, s, want)
			}
		}
	}
}
