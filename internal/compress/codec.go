// Package compress implements the column compression codecs the engine
// chooses among, each annotated with a CPU cost model (cycles per byte).
//
// Compression is the paper's flagship example of a software knob whose
// energy effect is counter-intuitive (Figure 2, §4.1): it "trades off CPU
// cycles for reduced bandwidth requirements", so on a 90 W CPU fed by 5 W
// flash it *costs* energy even while it halves runtime. The codecs here
// really compress real bytes — ratios are measured, not assumed — and the
// cost models are what the executor charges to the simulated CPU and what
// the optimizer's energy model reasons about.
package compress

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Codec transforms byte blocks. Implementations must be deterministic and
// self-contained per block (no cross-block state), so blocks can be decoded
// in any order.
type Codec interface {
	// Name identifies the codec in plans and diagnostics, e.g. "lz".
	Name() string
	// Encode appends the encoded form of src to dst and returns it.
	Encode(dst, src []byte) []byte
	// Decode appends the decoded form of src to dst and returns it. It may
	// write anywhere in dst's spare capacity, also past the length it
	// returns: pre-sizing dst saves the decoder its growth steps.
	Decode(dst, src []byte) ([]byte, error)
	// Cost returns the codec's CPU cost model.
	Cost() CostModel
}

// Int64Decoder is implemented by the codecs whose blocks are int64 streams
// (Delta, Bitpack). DecodeInt64s appends the block's values to dst without
// materialising the little-endian byte image Decode produces; the two agree
// value for value, and a block whose image is not whole int64s is
// ErrCorrupt here.
type Int64Decoder interface {
	DecodeInt64s(dst []int64, src []byte) ([]int64, error)
}

// StringDecoder is implemented by the codecs whose blocks are string
// streams (Dict). DecodeStrings appends one cell per value of the block to
// dst, allocating one string per distinct symbol instead of one per cell.
// tab, when non-nil, carries symbol strings from one block of a column to
// the next so a scan stops allocating once it has seen the column's domain.
//
// sel, when non-nil, is an ascending list of the cell positions the caller
// will read: only those cells are written, and only the symbols they name
// become strings. The other cells are still appended — the result has one
// cell per value either way — but keep whatever dst's backing array held.
// The whole block is parsed and checked whatever sel says, so the error
// result does not depend on it.
type StringDecoder interface {
	DecodeStrings(dst []string, src []byte, tab *SymbolTable, sel []int32) ([]string, error)
}

// CostModel gives the cycles charged per byte. Encode cost is per input
// (uncompressed) byte; decode cost is per output (uncompressed) byte, so
// both scale with the logical data size regardless of the achieved ratio.
type CostModel struct {
	EncodeCyclesPerByte float64
	DecodeCyclesPerByte float64
}

// ErrCorrupt is returned when encoded input cannot be decoded.
var ErrCorrupt = errors.New("compress: corrupt input")

// decodeBudget bounds how much output a decoder may produce for a given
// input size, so corrupt (or adversarial) blocks fail fast instead of
// allocating unboundedly. Real blocks never get near 8192x expansion.
func decodeBudget(srcLen int) int {
	b := 8192 * srcLen
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

// grow extends dst by n bytes of unspecified content, reallocating only
// when its capacity is short: a caller that pre-sized dst pays nothing.
func grow(dst []byte, n int) []byte {
	return slices.Grow(dst, n)[:len(dst)+n]
}

// appendLE64s appends vals as 8-byte little-endian words.
func appendLE64s(dst []byte, vals []int64) []byte {
	base := len(dst)
	dst = grow(dst, 8*len(vals))
	out := dst[base:]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:i*8+8], uint64(v))
	}
	return dst
}

// Ratio reports encoded/decoded size for src under c (1.0 = incompressible,
// smaller is better).
func Ratio(c Codec, src []byte) float64 {
	if len(src) == 0 {
		return 1
	}
	enc := c.Encode(nil, src)
	return float64(len(enc)) / float64(len(src))
}

// Raw is the identity codec: the "uncompressed" configuration.
var Raw Codec = rawCodec{}

type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }
func (rawCodec) Encode(dst, src []byte) []byte {
	return append(dst, src...)
}
func (rawCodec) Decode(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}
func (rawCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 0.2, DecodeCyclesPerByte: 0.2}
}

// putUvarint / uvarint are local varint helpers (LEB128, as in
// encoding/binary but append-based).
func putUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func uvarint(src []byte) (uint64, int) {
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
