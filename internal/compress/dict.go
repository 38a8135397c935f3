package compress

import "slices"

// Dict is a dictionary codec for streams of length-prefixed strings (the
// wire format the table layer uses for string columns): it collects the
// distinct strings of a block into a symbol table and replaces each
// occurrence by a varint index. Low-cardinality columns (order status,
// priorities, nation names) collapse to ~1 byte per value.
//
// Input format: repeated (len uvarint, bytes). Inputs that do not parse as
// that format are stored verbatim with a marker byte.
var Dict Codec = register(dictCodec{})

type dictCodec struct{}

func (dictCodec) Name() string { return "dict" }

const (
	dictMarker = 0xD1
	rawMarker  = 0x00
)

// parseStrings splits a length-prefixed string stream; ok is false when
// the input is not in that format.
func parseStrings(src []byte) (vals [][]byte, ok bool) {
	for off := 0; off < len(src); {
		n, k := uvarint(src[off:])
		// Guard n before converting: a 2^63+ length would wrap negative.
		if k <= 0 || n > uint64(len(src)) || off+k+int(n) > len(src) {
			return nil, false
		}
		off += k
		vals = append(vals, src[off:off+int(n)])
		off += int(n)
	}
	return vals, true
}

func (dictCodec) Encode(dst, src []byte) []byte {
	vals, ok := parseStrings(src)
	if ok {
		// A stream with a padded (non-canonical) length prefix parses, but
		// would not come back byte for byte: it is stored verbatim too.
		size := 0
		for _, v := range vals {
			size += uvarintLen(uint64(len(v))) + len(v)
		}
		ok = size == len(src)
	}
	if !ok {
		dst = append(dst, rawMarker)
		return append(dst, src...)
	}
	index := map[string]int{}
	var symbols []string
	for _, v := range vals {
		if _, seen := index[string(v)]; !seen {
			index[string(v)] = len(symbols)
			symbols = append(symbols, string(v))
		}
	}
	dst = append(dst, dictMarker)
	dst = putUvarint(dst, uint64(len(symbols)))
	for _, s := range symbols {
		dst = putUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = putUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = putUvarint(dst, uint64(index[string(v)]))
	}
	return dst
}

// SymbolTable is the decode-side state a reader keeps per dictionary
// column: the current block's symbols as strings, and the symbol strings
// of earlier blocks so a low-cardinality column allocates its domain once
// per scan, not once per block. The zero value is ready to use. Interned
// strings are individual allocations shared by the cells that carry them,
// so a retained cell pins its own symbol and nothing else.
type SymbolTable struct {
	syms   []string
	intern map[string]string
}

// maxInterned bounds both which blocks intern (those with at most this
// many symbols: a categorical domain, not a near-unique column) and how
// many strings a table holds on to.
const maxInterned = 1024

// str returns b as a string, shared with earlier blocks when interning.
func (t *SymbolTable) str(b []byte, intern bool) string {
	if !intern {
		return string(b)
	}
	if s, ok := t.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if t.intern == nil {
		t.intern = make(map[string]string)
	}
	if len(t.intern) < maxInterned {
		t.intern[s] = s
	}
	return s
}

// DecodeStrings implements StringDecoder. It holds Dict's decode loop.
func (dictCodec) DecodeStrings(dst []string, src []byte, tab *SymbolTable) ([]string, error) {
	if len(src) == 0 {
		return dst, nil
	}
	switch src[0] {
	case rawMarker:
		// Stored verbatim: one string per cell, as the table layer would
		// parse it. Encode never writes this for a string column.
		vals, ok := parseStrings(src[1:])
		if !ok {
			return dst, ErrCorrupt
		}
		for _, v := range vals {
			dst = append(dst, string(v))
		}
		return dst, nil
	case dictMarker:
		src = src[1:]
	default:
		return dst, ErrCorrupt
	}
	// Every symbol and every value takes at least one byte, which bounds
	// both counts by the input before anything is sized from them.
	nsym, k := uvarint(src)
	if k <= 0 || nsym > uint64(len(src)-k) {
		return dst, ErrCorrupt
	}
	src = src[k:]
	intern := tab != nil && nsym <= maxInterned
	if tab == nil {
		tab = &SymbolTable{}
	}
	syms := slices.Grow(tab.syms[:0], int(nsym))
	for i := uint64(0); i < nsym; i++ {
		n, k := uvarint(src)
		if k <= 0 || n > uint64(len(src)-k) {
			return dst, ErrCorrupt
		}
		syms = append(syms, tab.str(src[k:k+int(n)], intern))
		src = src[k+int(n):]
	}
	tab.syms = syms
	nvals, k := uvarint(src)
	if k <= 0 || nvals > uint64(len(src)-k) {
		return dst, ErrCorrupt
	}
	src = src[k:]
	base := len(dst)
	dst = slices.Grow(dst, int(nvals))[:base+int(nvals)]
	out := dst[base:]
	for i := range out {
		// Nearly every index is one byte; that case stays in the loop.
		var idx uint64
		if len(src) > 0 && src[0] < 0x80 {
			idx, k = uint64(src[0]), 1
		} else if idx, k = uvarint(src); k <= 0 {
			return dst[:base], ErrCorrupt
		}
		if idx >= uint64(len(syms)) {
			return dst[:base], ErrCorrupt
		}
		src = src[k:]
		out[i] = syms[idx]
	}
	if len(src) != 0 {
		return dst[:base], ErrCorrupt
	}
	return dst, nil
}

// Decode re-expands the block through DecodeStrings into the
// length-prefixed stream it was encoded from.
func (c dictCodec) Decode(dst, src []byte) ([]byte, error) {
	if len(src) > 0 && src[0] == rawMarker {
		return append(dst, src[1:]...), nil
	}
	strs, err := c.DecodeStrings(nil, src, nil)
	if err != nil {
		return dst, err
	}
	// A value is one index byte in the block but a whole symbol in the
	// output, so the expansion is checked against the budget before the
	// output is sized.
	size, budget := 0, decodeBudget(len(src))
	for _, s := range strs {
		if size += uvarintLen(uint64(len(s))) + len(s); size > budget {
			return dst, ErrCorrupt
		}
	}
	dst = slices.Grow(dst, size)
	for _, s := range strs {
		dst = putUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

func (dictCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 5.0, DecodeCyclesPerByte: 1.8}
}
