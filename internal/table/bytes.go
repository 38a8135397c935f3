package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file defines the byte encodings shared by the column store, the
// row store and the WAL:
//
//   - int-class values: 8-byte little-endian
//   - float values:     8-byte little-endian of the IEEE bits
//   - strings:          uvarint length + bytes
//
// Column encodings (EncodeBytes) feed the compression codecs, which are
// byte transformers. The row encoding (EncodeRows) is both the slotted
// row-store page payload and the body of a WAL insert record — core's
// walcodec.go adds only a table/startRow/count header and padding — so
// there is one typed-row byte form and one decoder for it to keep safe.

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

func readUvarint(src []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range src {
		if i == 10 {
			return 0, -1
		}
		if b < 0x80 {
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// appendWords extends dst by n 8-byte words and returns it along with the
// new words, for the caller to fill.
func appendWords(dst []byte, n int) (all, words []byte) {
	base := len(dst)
	dst = slices.Grow(dst, 8*n)[:base+8*n]
	return dst, dst[base:]
}

// EncodeBytes appends the wire form of elements [lo, hi) of v to dst.
func (v *Vector) EncodeBytes(dst []byte, lo, hi int) []byte {
	switch v.Type.Physical() {
	case PhysInt:
		var out []byte
		dst, out = appendWords(dst, hi-lo)
		for i, x := range v.I[lo:hi] {
			binary.LittleEndian.PutUint64(out[i*8:i*8+8], uint64(x))
		}
	case PhysFloat:
		var out []byte
		dst, out = appendWords(dst, hi-lo)
		for i, x := range v.F[lo:hi] {
			binary.LittleEndian.PutUint64(out[i*8:i*8+8], math.Float64bits(x))
		}
	default:
		for _, s := range v.S[lo:hi] {
			dst = appendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// DecodeVector parses n values of type t from data, which must contain
// exactly n encoded values.
func DecodeVector(t Type, data []byte, n int) (*Vector, error) {
	v := NewVector(t, 0)
	if err := DecodeVectorInto(v, data, n); err != nil {
		return nil, err
	}
	return v, nil
}

// DecodeVectorInto refills v in place with the n values of v.Type encoded
// in data, which must contain exactly n encoded values. v's backing array
// is reused when large enough, so whatever v held is overwritten; on error
// v is left empty. n is checked against data before anything is sized from
// it.
func DecodeVectorInto(v *Vector, data []byte, n int) error {
	v.Reset()
	switch v.Type.Physical() {
	case PhysInt:
		if n < 0 || len(data)/8 != n || len(data)%8 != 0 {
			return fmt.Errorf("table: int column of %d values needs 8 bytes each, have %d", n, len(data))
		}
		v.I = slices.Grow(v.I, n)[:n]
		for i := range v.I {
			v.I[i] = int64(binary.LittleEndian.Uint64(data[i*8 : i*8+8]))
		}
	case PhysFloat:
		if n < 0 || len(data)/8 != n || len(data)%8 != 0 {
			return fmt.Errorf("table: float column of %d values needs 8 bytes each, have %d", n, len(data))
		}
		v.F = slices.Grow(v.F, n)[:n]
		for i := range v.F {
			v.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8 : i*8+8]))
		}
	default:
		// Every string takes at least its length byte.
		if n < 0 || n > len(data) {
			return fmt.Errorf("table: string column of %d values in %d bytes", n, len(data))
		}
		v.S = slices.Grow(v.S, n)
		off := 0
		for i := 0; i < n; i++ {
			s, k, err := readString(data[off:])
			if err != nil {
				v.Reset()
				return fmt.Errorf("table: string column value %d: %w", i, err)
			}
			v.S = append(v.S, s)
			off += k
		}
		if off != len(data) {
			v.Reset()
			return fmt.Errorf("table: %d trailing bytes after string column", len(data)-off)
		}
	}
	return nil
}

// errCorruptString reports a length prefix that is malformed or runs past
// the end of the data.
var errCorruptString = errors.New("corrupt string")

// readString parses one wire string from the front of src, returning it
// and the bytes it took.
func readString(src []byte) (string, int, error) {
	start, end, err := strSpan(src)
	if err != nil {
		return "", 0, err
	}
	return string(src[start:end]), end, nil
}

// strSpan parses the length prefix of the wire string at the front of src
// and reports where its bytes start and end, checked against src.
func strSpan(src []byte) (start, end int, err error) {
	l, k := readUvarint(src)
	if k <= 0 || l > uint64(len(src)-k) {
		return 0, 0, errCorruptString
	}
	return k, k + int(l), nil
}

// EncodeRows appends the row-major wire form of batch rows [lo, hi): each
// row is its columns' wire values concatenated in schema order. This is
// the row-store page payload and the WAL record body. lo and hi index
// physical rows: a batch carrying a deferred selection must be compacted
// first (Clone, AppendBatch), or filtered-out rows would be encoded.
func (b *Batch) EncodeRows(dst []byte, lo, hi int) []byte {
	if b.Sel != nil {
		panic("table: EncodeRows over a selected batch; compact it first")
	}
	for r := lo; r < hi; r++ {
		for _, v := range b.Vecs {
			switch v.Type.Physical() {
			case PhysInt:
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I[r]))
			case PhysFloat:
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F[r]))
			default:
				dst = appendUvarint(dst, uint64(len(v.S[r])))
				dst = append(dst, v.S[r]...)
			}
		}
	}
	return dst
}

// DecodeRows parses n rows in the EncodeRows format into a fresh batch.
func DecodeRows(s *Schema, data []byte, n int) (*Batch, error) {
	b := NewBatch(s, 0)
	if err := DecodeRowsInto(b, data, n, 0); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeRowsInto refills b in place with the n rows of b.Schema encoded in
// data in the EncodeRows format, which must be all of data. b's vectors
// are reused when large enough, so whatever b held is overwritten; on
// error b is left empty. n is checked against data before anything is
// sized from it.
//
// Bit i of skip names column i as one the caller will not read. If it is a
// string column its cells are parsed and checked as every other column's,
// but not materialised: each reads "". Other columns decode regardless.
func DecodeRowsInto(b *Batch, data []byte, n int, skip uint64) error {
	used, err := decodeRowsInto(b, data, n, skip)
	if err == nil && used != len(data) {
		b.Reset()
		err = fmt.Errorf("table: %d trailing bytes after %d rows", len(data)-used, n)
	}
	return err
}

// DecodeRowsPrefixInto is DecodeRowsInto, skipping nothing, for rows that
// something else follows (the WAL zero-pads short records): it reports how
// many bytes the n rows took and leaves the rest of data unread.
func DecodeRowsPrefixInto(b *Batch, data []byte, n int) (int, error) {
	return decodeRowsInto(b, data, n, 0)
}

func decodeRowsInto(b *Batch, data []byte, n int, skip uint64) (int, error) {
	b.Reset()
	used, err := decodeRows(b, data, n, skip)
	if err != nil {
		b.Reset()
		return 0, err
	}
	b.SetRows(n)
	return used, nil
}

func decodeRows(b *Batch, data []byte, n int, skip uint64) (int, error) {
	minRow := 0 // the fewest bytes one row can take
	for _, v := range b.Vecs {
		if v.Type.Physical() == PhysString {
			minRow++
		} else {
			minRow += 8
		}
	}
	if n < 0 || (minRow > 0 && n > len(data)/minRow) {
		return 0, fmt.Errorf("table: %d rows of at least %d bytes in %d bytes", n, minRow, len(data))
	}
	for _, v := range b.Vecs {
		switch v.Type.Physical() {
		case PhysInt:
			v.I = slices.Grow(v.I, n)[:n]
		case PhysFloat:
			v.F = slices.Grow(v.F, n)[:n]
		default:
			v.S = slices.Grow(v.S, n)
		}
	}
	off := 0
	// A schema without columns has rows without bytes: nothing to parse.
	for r := 0; r < n && minRow > 0; r++ {
		for ci, v := range b.Vecs {
			switch v.Type.Physical() {
			case PhysInt:
				if off+8 > len(data) {
					return 0, fmt.Errorf("table: truncated row %d col %d", r, ci)
				}
				v.I[r] = int64(binary.LittleEndian.Uint64(data[off : off+8]))
				off += 8
			case PhysFloat:
				if off+8 > len(data) {
					return 0, fmt.Errorf("table: truncated row %d col %d", r, ci)
				}
				v.F[r] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
				off += 8
			default:
				start, end, err := strSpan(data[off:])
				if err != nil {
					return 0, fmt.Errorf("table: row %d col %d: %w", r, ci, err)
				}
				s := ""
				if skip>>uint(ci)&1 == 0 {
					s = string(data[off+start : off+end])
				}
				v.S = append(v.S, s)
				off += end
			}
		}
	}
	return off, nil
}
