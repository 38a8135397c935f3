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
// column: the current block's symbols, and the symbol strings of earlier
// blocks, so a low-cardinality column allocates its domain once per scan,
// not once per block. The zero value is ready to use. Interned strings are
// individual allocations shared by the cells that carry them, so a retained
// cell pins its own symbol and nothing else.
type SymbolTable struct {
	syms   []symbol
	intern map[string]string
}

// Reset empties the table for its next reader, which may be another
// statement's: every entry is cleared to the slice's full capacity and the
// interned strings are dropped, so nothing the last reader decoded stays
// pinned; the room for a block's symbols is kept.
func (t *SymbolTable) Reset() {
	clear(t.syms[:cap(t.syms)])
	t.syms, t.intern = t.syms[:0], nil
}

// symbol is one entry of a block's dictionary: where its length prefix
// lies in the block, and its string once a wanted cell has named it.
type symbol struct {
	str string // "" until then
	at  int
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

// symbol makes symbol idx of the block src a string, the first time a
// wanted cell names it. Its length prefix was validated when the symbols
// were located.
func (t *SymbolTable) symbol(src []byte, idx uint64, intern bool) string {
	sym := &t.syms[idx]
	n, k := uvarint(src[sym.at:])
	if n == 0 {
		return ""
	}
	sym.str = t.str(src[sym.at+k:sym.at+k+int(n)], intern)
	return sym.str
}

// skipIndexes checks n cell indexes of a block of nsym symbols, starting
// at src[p:], and returns the offset past them, or -1 if one is malformed
// or names no symbol.
func skipIndexes(src []byte, p, n int, nsym uint64) int {
	for ; n > 0; n-- {
		// Nearly every index is one byte.
		if p < len(src) && uint64(src[p]) < min(nsym, 0x80) {
			p++
			continue
		}
		idx, k := uvarint(src[p:])
		if k <= 0 || idx >= nsym {
			return -1
		}
		p += k
	}
	return p
}

// nextRun returns the first run [lo, hi) of consecutive positions in the
// ascending sel[k:], cut off at n, and the k to pass for the run after it;
// the run is [n, n) when no position below n is left.
func nextRun(sel []int32, k, n int) (lo, hi, next int) {
	if k >= len(sel) || int(sel[k]) >= n {
		return n, n, len(sel)
	}
	lo, hi = int(sel[k]), int(sel[k])+1
	for k++; hi < n && k < len(sel) && int(sel[k]) == hi; k++ {
		hi++
	}
	return lo, hi, k
}

// DecodeStrings implements StringDecoder. It holds Dict's decode loop.
func (dictCodec) DecodeStrings(dst []string, src []byte, tab *SymbolTable, sel []int32) ([]string, error) {
	if len(src) == 0 {
		return dst, nil
	}
	base, picked := len(dst), 0
	switch src[0] {
	case rawMarker:
		// Stored verbatim: one string per cell, as the table layer would
		// parse it. Encode never writes this for a string column.
		vals, ok := parseStrings(src[1:])
		if !ok {
			return dst, ErrCorrupt
		}
		dst = slices.Grow(dst, len(vals))[:base+len(vals)]
		for i := 0; i < len(vals); {
			lo, hi := i, len(vals)
			if sel != nil {
				lo, hi, picked = nextRun(sel, picked, len(vals))
			}
			for i = lo; i < hi; i++ {
				dst[base+i] = string(vals[i])
			}
		}
		return dst, nil
	case dictMarker:
	default:
		return dst, ErrCorrupt
	}
	// Every symbol and every value takes at least one byte, which bounds
	// both counts by the input before anything is sized from them.
	p := 1
	nsym, k := uvarint(src[p:])
	if k <= 0 || nsym > uint64(len(src)-p-k) {
		return dst, ErrCorrupt
	}
	p += k
	intern := tab != nil && nsym <= maxInterned
	if tab == nil {
		tab = &SymbolTable{}
	}
	// Symbols are located and checked here, and become strings below.
	syms := slices.Grow(tab.syms[:0], int(nsym))[:nsym]
	tab.syms = syms
	for i := range syms {
		n, k := uvarint(src[p:])
		if k <= 0 || n > uint64(len(src)-p-k) {
			return dst, ErrCorrupt
		}
		syms[i] = symbol{at: p}
		p += k + int(n)
	}
	nvals, k := uvarint(src[p:])
	if k <= 0 || nvals > uint64(len(src)-p-k) {
		return dst, ErrCorrupt
	}
	p += k
	dst = slices.Grow(dst, int(nvals))[:base+int(nvals)]
	out := dst[base:]
	// Cells are taken a run at a time: out[lo:hi] is the next run of wanted
	// cells, and the cells before it are checked and passed over. Without a
	// selection the block is one run.
	for i := 0; i < len(out); {
		lo, hi := i, len(out)
		if sel != nil {
			lo, hi, picked = nextRun(sel, picked, len(out))
		}
		if p = skipIndexes(src, p, lo-i, nsym); p < 0 {
			return dst[:base], ErrCorrupt
		}
		for i = lo; i < hi; i++ {
			// Nearly every index is one byte; that case stays in the loop.
			var idx uint64
			if p < len(src) && src[p] < 0x80 {
				idx, k = uint64(src[p]), 1
			} else if idx, k = uvarint(src[p:]); k <= 0 {
				return dst[:base], ErrCorrupt
			}
			if idx >= nsym {
				return dst[:base], ErrCorrupt
			}
			p += k
			s := syms[idx].str
			if s == "" {
				s = tab.symbol(src, idx, intern)
			}
			out[i] = s
		}
	}
	if p != len(src) {
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
	strs, err := c.DecodeStrings(nil, src, nil, nil)
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
