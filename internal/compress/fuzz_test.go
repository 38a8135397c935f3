package compress

import (
	"bytes"
	"errors"
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

func TestDecodeCrashersReturnErrCorrupt(t *testing.T) {
	if _, err := LZ.Decode(nil, lzWrappedOffset); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LZ.Decode of a wrapped offset: err = %v, want ErrCorrupt", err)
	}
	if _, err := Dict.Decode(nil, dictHugeSymCount); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Dict.Decode of a huge symbol count: err = %v, want ErrCorrupt", err)
	}
	if _, err := Dict.(StringDecoder).DecodeStrings(nil, dictHugeSymCount, nil); !errors.Is(err, ErrCorrupt) {
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

// FuzzCodecDecode holds every registered codec to the decode layer's
// contract on arbitrary bytes: Decode never panics and never exceeds
// decodeBudget; Decode(Encode(x)) == x; and a typed entry point yields
// exactly the values Decode followed by table.DecodeVector would, also
// when appending to a dirty, reused destination.
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
	if _, perr := dec.DecodeStrings(nil, Dict.Encode(nil, stringStream("stale", "F", "stale")), &tab); perr != nil {
		t.Fatal(perr)
	}
	dirty := append(make([]string, 0, 64), "kept")
	got, terr := dec.DecodeStrings(dirty, data, &tab)
	if len(got) < 1 || got[0] != "kept" {
		t.Fatalf("%s: DecodeStrings clobbered the destination's prefix", name)
	}
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
