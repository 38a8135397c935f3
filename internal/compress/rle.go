package compress

import "slices"

// RLE is a byte-level run-length codec: the stream is a sequence of
// (run length varint, value byte) pairs. Column-major integer data is full
// of long zero runs (high-order bytes), which is why RLE is a classic
// column-store codec despite its simplicity.
var RLE Codec = register(rleCodec{})

type rleCodec struct{}

func (rleCodec) Name() string { return "rle" }

func (rleCodec) Encode(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		dst = putUvarint(dst, uint64(j-i))
		dst = append(dst, src[i])
		i = j
	}
	return dst
}

func (rleCodec) Decode(dst, src []byte) ([]byte, error) {
	budget := uint64(decodeBudget(len(src)))
	for len(src) > 0 {
		n, k := uvarint(src)
		if k <= 0 || k == len(src) || n == 0 || n > budget {
			return dst, ErrCorrupt
		}
		v := src[k]
		src = src[k+1:]
		budget -= n
		start := len(dst)
		dst = grow(dst, int(n))
		run := dst[start:]
		for i := range run {
			run[i] = v
		}
	}
	return dst, nil
}

func (rleCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 1.5, DecodeCyclesPerByte: 0.8}
}

// Delta is an int64 delta + zigzag + varint codec for fixed-width 8-byte
// little-endian integer streams (sorted keys compress to ~1 byte/value).
// Inputs whose length is not a multiple of 8 keep a raw tail.
var Delta Codec = register(deltaCodec{})

type deltaCodec struct{}

func (deltaCodec) Name() string { return "delta" }

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func le64(b []byte) int64 {
	return int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
}

func (deltaCodec) Encode(dst, src []byte) []byte {
	n := len(src) / 8
	tail := src[n*8:]
	dst = putUvarint(dst, uint64(n))
	var prev int64
	for i := 0; i < n; i++ {
		v := le64(src[i*8 : i*8+8])
		dst = putUvarint(dst, zigzag(v-prev))
		prev = v
	}
	dst = putUvarint(dst, uint64(len(tail)))
	return append(dst, tail...)
}

// decodeInts is Delta's decode loop: it appends the block's values to dst
// and returns the raw tail that follows them.
func (deltaCodec) decodeInts(dst []int64, src []byte) ([]int64, []byte, error) {
	n, k := uvarint(src)
	// Every value takes at least one byte, which bounds n by the input
	// before anything is sized from it.
	if k <= 0 || n > uint64(len(src)-k) {
		return dst, nil, ErrCorrupt
	}
	src = src[k:]
	base := len(dst)
	dst = slices.Grow(dst, int(n))[:base+int(n)]
	out := dst[base:]
	var prev int64
	for i := range out {
		// Nearly every delta is one byte; that case stays in the loop.
		var u uint64
		if len(src) > 0 && src[0] < 0x80 {
			u, k = uint64(src[0]), 1
		} else if u, k = uvarint(src); k <= 0 {
			return dst[:base], nil, ErrCorrupt
		}
		src = src[k:]
		prev += unzigzag(u)
		out[i] = prev
	}
	tail, err := rawTail(src)
	return dst, tail, err
}

// rawTail parses the (length, bytes) suffix the int64 codecs keep for
// input that is not a whole number of words.
func rawTail(src []byte) ([]byte, error) {
	tn, k := uvarint(src)
	if k <= 0 || uint64(len(src)-k) != tn {
		return nil, ErrCorrupt
	}
	return src[k:], nil
}

// decodeWords is Decode for the int64 codecs, expressed over their typed
// loop: the values are decoded once, then laid out as little-endian words
// with the raw tail behind them.
func decodeWords(dst, src []byte, decodeInts func(dst []int64, src []byte) ([]int64, []byte, error)) ([]byte, error) {
	vals, tail, err := decodeInts(nil, src)
	if err != nil {
		return dst, err
	}
	return append(appendLE64s(dst, vals), tail...), nil
}

// decodeWholeWords is DecodeInt64s for the int64 codecs: the typed loop,
// then the raw tail read as words too — exactly the values Decode's byte
// image holds — or ErrCorrupt when the tail is not whole words.
func decodeWholeWords(dst []int64, src []byte, decodeInts func(dst []int64, src []byte) ([]int64, []byte, error)) ([]int64, error) {
	base := len(dst)
	dst, tail, err := decodeInts(dst, src)
	if err != nil || len(tail)%8 != 0 {
		return dst[:base], ErrCorrupt
	}
	for ; len(tail) > 0; tail = tail[8:] {
		dst = append(dst, le64(tail))
	}
	return dst, nil
}

func (c deltaCodec) Decode(dst, src []byte) ([]byte, error) {
	return decodeWords(dst, src, c.decodeInts)
}

// DecodeInt64s implements Int64Decoder.
func (c deltaCodec) DecodeInt64s(dst []int64, src []byte) ([]int64, error) {
	return decodeWholeWords(dst, src, c.decodeInts)
}

func (deltaCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 2.2, DecodeCyclesPerByte: 1.6}
}

// Bitpack frame-of-reference packs int64 streams: per 128-value frame it
// stores the minimum and the bit width of offsets, then the packed bits.
var Bitpack Codec = register(bitpackCodec{})

type bitpackCodec struct{}

const bpFrame = 128

func (bitpackCodec) Name() string { return "bitpack" }

func (bitpackCodec) Encode(dst, src []byte) []byte {
	n := len(src) / 8
	tail := src[n*8:]
	dst = putUvarint(dst, uint64(n))
	for f := 0; f < n; f += bpFrame {
		hi := f + bpFrame
		if hi > n {
			hi = n
		}
		lo64 := le64(src[f*8 : f*8+8])
		maxOff := uint64(0)
		for i := f; i < hi; i++ {
			v := le64(src[i*8 : i*8+8])
			if v < lo64 {
				lo64 = v
			}
		}
		for i := f; i < hi; i++ {
			off := uint64(le64(src[i*8:i*8+8]) - lo64)
			if off > maxOff {
				maxOff = off
			}
		}
		width := 0
		for maxOff != 0 {
			width++
			maxOff >>= 1
		}
		dst = putUvarint(dst, zigzag(lo64))
		// Widths above 56 bits cannot be streamed through the 64-bit
		// accumulator without overflow; store such frames raw (width
		// sentinel 255). They are incompressible anyway.
		if width > 56 {
			dst = append(dst, 255)
			dst = append(dst, src[f*8:hi*8]...)
			continue
		}
		dst = append(dst, byte(width))
		var acc uint64
		var bits uint
		for i := f; i < hi; i++ {
			off := uint64(le64(src[i*8:i*8+8]) - lo64)
			acc |= off << bits
			bits += uint(width)
			for bits >= 8 {
				dst = append(dst, byte(acc))
				acc >>= 8
				bits -= 8
			}
		}
		if bits > 0 {
			dst = append(dst, byte(acc))
		}
	}
	dst = putUvarint(dst, uint64(len(tail)))
	return append(dst, tail...)
}

// decodeInts is Bitpack's decode loop: it appends the block's values to
// dst and returns the raw tail that follows them.
func (bitpackCodec) decodeInts(dst []int64, src []byte) ([]int64, []byte, error) {
	n, k := uvarint(src)
	// A frame of up to 128 values takes at least two bytes (minimum and
	// width), which bounds n by the input before anything is sized from it.
	if k <= 0 || n > 64*uint64(len(src)-k) {
		return dst, nil, ErrCorrupt
	}
	src = src[k:]
	base := len(dst)
	dst = slices.Grow(dst, int(n))[:base+int(n)]
	for out := dst[base:]; len(out) > 0; {
		frame := out[:min(bpFrame, len(out))]
		out = out[len(frame):]
		zl, k := uvarint(src)
		if k <= 0 || k == len(src) {
			return dst[:base], nil, ErrCorrupt
		}
		lo := unzigzag(zl)
		width := uint(src[k])
		src = src[k+1:]
		if width == 255 { // raw frame
			if len(src) < len(frame)*8 {
				return dst[:base], nil, ErrCorrupt
			}
			for i := range frame {
				frame[i] = le64(src[i*8 : i*8+8])
			}
			src = src[len(frame)*8:]
			continue
		}
		nbytes := (len(frame)*int(width) + 7) / 8
		if width > 56 || len(src) < nbytes {
			return dst[:base], nil, ErrCorrupt
		}
		var acc uint64
		var bits uint
		bi := 0
		mask := uint64(1)<<width - 1
		for i := range frame {
			for bits < width {
				acc |= uint64(src[bi]) << bits
				bi++
				bits += 8
			}
			frame[i] = lo + int64(acc&mask)
			acc >>= width
			bits -= width
		}
		src = src[nbytes:]
	}
	tail, err := rawTail(src)
	return dst, tail, err
}

func (c bitpackCodec) Decode(dst, src []byte) ([]byte, error) {
	return decodeWords(dst, src, c.decodeInts)
}

// DecodeInt64s implements Int64Decoder.
func (c bitpackCodec) DecodeInt64s(dst []int64, src []byte) ([]int64, error) {
	return decodeWholeWords(dst, src, c.decodeInts)
}

func (bitpackCodec) Cost() CostModel {
	return CostModel{EncodeCyclesPerByte: 2.0, DecodeCyclesPerByte: 1.2}
}
