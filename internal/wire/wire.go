// Package wire is the front door's length-prefixed frame protocol,
// shared by internal/server and internal/client. It defines the frame
// format, the message types, a columnar batch encoding that reuses
// table.Batch's byte layout, and an error-code taxonomy mapped onto the
// internal/fault sentinels so typed errors survive the wire:
// errors.Is(err, fault.ErrDeadlineExceeded) holds on the client for a
// query the server cancelled at its deadline.
//
// Frame layout:
//
//	uint32 LE payload length | 1 byte message type | body
//
// Bodies are built from three primitives matching the engine's storage
// encodings (table/bytes.go): 8-byte little-endian integers, 8-byte IEEE
// float bits, and uvarint-length-prefixed strings. Every frame is a
// complete request or reply; the protocol is strict request/response per
// connection, so a reader never has to interleave streams.
//
// Each end of a connection frames through one Conn, which keeps its read
// and write buffers across frames. A body returned by Conn.Read is valid
// until the next Read: every decoder here copies what it keeps
// (Reader.Str, DecodeBatch through table.DecodeVector), so only a raw
// Reader.Bytes slice aliases the buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"energydb/internal/fault"
	"energydb/internal/table"
)

// Version is the protocol version exchanged in Hello/Welcome.
const Version = 1

// MaxFrame bounds a frame's payload so a torn or hostile length prefix
// cannot make the reader allocate unboundedly.
const MaxFrame = 64 << 20

// frameChunk is as far as Conn.Read trusts a length prefix ahead of the
// bytes behind it: a longer payload is read into a buffer that at most
// doubles per chunk, so a five-byte frame claiming MaxFrame costs 64 KiB.
const frameChunk = 64 << 10

// Message types. Client-to-server frames ask; server-to-client frames
// answer. Every request gets exactly one terminal reply frame.
const (
	// MsgHello opens a connection: version, tenant ID (auth-lite).
	MsgHello byte = iota + 1
	// MsgWelcome acknowledges the handshake: version.
	MsgWelcome
	// MsgSessionOpen asks for a new session → MsgSessionOK{sid}.
	MsgSessionOpen
	// MsgSessionOK carries the new session's id.
	MsgSessionOK
	// MsgSessionClose closes a session → MsgOK.
	MsgSessionClose
	// MsgPrepare binds a SELECT on a session: sid, sql → MsgPrepared.
	MsgPrepare
	// MsgPrepared carries the prepared statement's id.
	MsgPrepared
	// MsgExecute submits a prepared statement: stmt id, flags, at,
	// deadline → MsgExecuted{qid}. FlagDiscard drops result batches
	// server-side, keeping only the row count.
	MsgExecute
	// MsgExecuted carries the submitted query's id.
	MsgExecuted
	// MsgDiscard marks a submitted query discard-results: qid → MsgOK.
	MsgDiscard
	// MsgFetch asks for the query's next result batch: qid → MsgBatch
	// (one batch) or MsgDone (stream finished, stats and any error).
	MsgFetch
	// MsgBatch carries one columnar result batch.
	MsgBatch
	// MsgDone terminates a result stream: the query's Result stats plus
	// an error code when it failed. The server forgets the query id once
	// it sends MsgDone: a later MsgFetch of it is a protocol error, a
	// later MsgCancel just acks.
	MsgDone
	// MsgCancel cancels/closes a submitted query: qid → MsgOK. Safe on
	// finished queries (it just releases server-side buffers).
	MsgCancel
	// MsgExec runs a non-SELECT statement (CREATE/INSERT): at, sql →
	// MsgOK. at > now schedules the statement at simulated time at
	// (fire-and-forget; errors surface at MsgDrain), at <= now runs it
	// synchronously.
	MsgExec
	// MsgExplain plans a SELECT without running it: sid, sql → MsgBatch
	// holding the plan rows (operator, detail, dop, pstate, ms, joules).
	MsgExplain
	// MsgDrain runs the simulation until no scheduled work remains →
	// MsgOK (carrying the first deferred-statement error, if any).
	MsgDrain
	// MsgMeter asks for the energy ledger → MsgMeterReport.
	MsgMeter
	// MsgMeterReport carries the wall meter, the unattributed idle floor,
	// and the per-tenant attributed bill.
	MsgMeterReport
	// MsgOK is the generic ack, carrying an error code (0 = success).
	MsgOK
	// MsgError reports a protocol-level failure (malformed frame, unknown
	// id); the server closes the connection after sending it.
	MsgError
)

// Execute flags.
const (
	// FlagDiscard drops result batches server-side as they are produced,
	// keeping only the row count (throughput drivers).
	FlagDiscard byte = 1 << 0
)

// Error codes carried by MsgDone/MsgOK/MsgError. Every internal/fault
// sentinel has a code so errors.Is classification survives the wire.
const (
	CodeOK uint32 = iota
	CodeGeneric
	CodeDeviceFailed
	CodeTransientIO
	CodeDeadlineExceeded
	CodeCanceled
	CodeMemBudget
	CodeCrashed
	CodeProtocol // malformed frame or unknown id
	CodeType
)

// ErrProtocol is the sentinel wrapped by protocol-level wire errors.
var ErrProtocol = errors.New("wire: protocol error")

// CodeFor classifies an error against the fault taxonomy.
func CodeFor(err error) uint32 {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, fault.ErrDeviceFailed):
		return CodeDeviceFailed
	case errors.Is(err, fault.ErrTransientIO):
		return CodeTransientIO
	case errors.Is(err, fault.ErrDeadlineExceeded):
		return CodeDeadlineExceeded
	case errors.Is(err, fault.ErrCanceled):
		return CodeCanceled
	case errors.Is(err, fault.ErrMemBudget):
		return CodeMemBudget
	case errors.Is(err, fault.ErrCrashed):
		return CodeCrashed
	case errors.Is(err, ErrProtocol):
		return CodeProtocol
	case errors.Is(err, fault.ErrType):
		return CodeType
	default:
		return CodeGeneric
	}
}

// sentinelFor maps a code back to its fault sentinel (nil for generic).
func sentinelFor(code uint32) error {
	switch code {
	case CodeDeviceFailed:
		return fault.ErrDeviceFailed
	case CodeTransientIO:
		return fault.ErrTransientIO
	case CodeDeadlineExceeded:
		return fault.ErrDeadlineExceeded
	case CodeCanceled:
		return fault.ErrCanceled
	case CodeMemBudget:
		return fault.ErrMemBudget
	case CodeCrashed:
		return fault.ErrCrashed
	case CodeProtocol:
		return ErrProtocol
	case CodeType:
		return fault.ErrType
	default:
		return nil
	}
}

// Error is a remote failure reconstructed from its wire code: its Unwrap
// exposes the matching fault sentinel, so errors.Is works exactly as it
// would against the server-side error.
type Error struct {
	Code uint32
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return e.Msg }

// Unwrap exposes the fault sentinel for errors.Is / errors.As.
func (e *Error) Unwrap() error { return sentinelFor(e.Code) }

// DecodeError reconstructs a remote error from its code and message;
// code 0 returns nil.
func DecodeError(code uint32, msg string) error {
	if code == CodeOK {
		return nil
	}
	if msg == "" {
		msg = fmt.Sprintf("wire: remote error code %d", code)
	}
	return &Error{Code: code, Msg: msg}
}

// keepBuf is the most a Conn keeps of either buffer between frames: a
// frame that needs more gets a buffer of its own, dropped with the frame,
// so an idle connection pins at most 2 × keepBuf per end.
const keepBuf = 4 << 10

// Conn frames one end of a connection. It reads each frame into a buffer
// it keeps, and builds each outgoing frame in a second kept buffer that
// leaves in one Write. A Conn is not safe for concurrent use: its owner
// serializes Read, Begin and Send.
type Conn struct {
	rw  io.ReadWriter
	hdr [4]byte
	in  []byte // the last frame read: type byte, then body
	out []byte // the frame being built: length, type byte, body
}

// NewConn returns a Conn framing rw.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// Read reads one frame. The body it returns aliases the Conn's read
// buffer and is valid until the next Read; decoders copy what they keep.
// A torn length prefix, an oversized length, or a body shorter than its
// prefix all return an error wrapping ErrProtocol (or
// io.EOF/io.ErrUnexpectedEOF for a cleanly closed or truncated stream).
// What it allocates is bounded by the bytes that arrived (see
// frameChunk), not by the length prefix.
func (c *Conn) Read() (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(c.rw, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:]))
	if n == 0 {
		return 0, nil, fmt.Errorf("wire: zero-length frame: %w", ErrProtocol)
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame: %w", n, ErrProtocol)
	}
	buf := c.in[:0]
	if n > cap(buf) {
		buf = make([]byte, 0, min(n, frameChunk))
		if n <= keepBuf {
			c.in = buf
		}
	}
	for {
		k, err := io.ReadFull(c.rw, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, nil, err
		}
		if len(buf) == n {
			return buf[0], buf[1:], nil
		}
		buf = slices.Grow(buf, min(n-len(buf), len(buf)))
	}
}

// Begin starts an outgoing frame of type typ in the Conn's write buffer
// and returns it; the caller appends the body and hands the result to
// Send. Begin discards any frame begun and not sent.
func (c *Conn) Begin(typ byte) []byte {
	return append(c.out[:0], 0, 0, 0, 0, typ)
}

// Send patches the length prefix of frame, which Begin started, and
// writes it with one Write. A frame that grew past keepBuf is dropped
// after it is written; the Conn keeps its earlier, smaller buffer.
func (c *Conn) Send(frame []byte) error {
	if len(frame)-4 > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(frame)-4)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	if cap(frame) <= keepBuf {
		c.out = frame[:0]
	}
	_, err := c.rw.Write(frame)
	return err
}

// Body encoding primitives: append-style writers and a cursor reader
// with sticky error, matching the storage layer's byte formats.

// AppendU64 appends an 8-byte little-endian integer.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendU32 appends a 4-byte little-endian integer.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendF64 appends a float64 as its 8 IEEE bits, little-endian.
func AppendF64(dst []byte, v float64) []byte {
	return AppendU64(dst, math.Float64bits(v))
}

// AppendStr appends a uvarint length prefix and the string bytes.
func AppendStr(dst []byte, s string) []byte {
	return append(appendUvarint(dst, uint64(len(s))), s...)
}

func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// Reader is a cursor over a frame body with a sticky error: reads past
// the end (a torn body) set Err instead of panicking, so decoders check
// once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader over body.
func NewReader(body []byte) *Reader { return &Reader{b: body} }

// Reset points r at body, clearing its offset and error, so one Reader
// decodes frame after frame.
func (r *Reader) Reset(body []byte) { *r = Reader{b: body} }

// Err reports the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest reports the number of unread bytes.
func (r *Reader) Rest() int { return len(r.b) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s at offset %d: %w", what, r.off, ErrProtocol)
	}
}

// U64 reads an 8-byte little-endian integer.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// U32 reads a 4-byte little-endian integer.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// F64 reads a float64 from its IEEE bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a uvarint-length-prefixed string.
func (r *Reader) Str() string {
	if r.err != nil {
		return ""
	}
	var x uint64
	var s uint
	i := r.off
	for {
		if i >= len(r.b) || i-r.off == 10 {
			r.fail("string length")
			return ""
		}
		c := r.b[i]
		i++
		if c < 0x80 {
			x |= uint64(c) << s
			break
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	if x > uint64(len(r.b)-i) {
		r.fail("string body")
		return ""
	}
	out := string(r.b[i : i+int(x)])
	r.off = i + int(x)
	return out
}

// Bytes reads exactly n raw bytes.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail("bytes")
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// AppendBatch appends the columnar wire form of a batch: schema name,
// column count, row count, then per column its name, type, declared
// width, and the column's EncodeBytes payload, encoded in place behind
// its length. A batch carrying a deferred selection is compacted first,
// so filtered-out rows never hit the wire.
func AppendBatch(dst []byte, b *table.Batch) []byte {
	if b.Sel != nil {
		b = b.Clone()
	}
	dst = AppendStr(dst, b.Schema.Name)
	dst = AppendU32(dst, uint32(len(b.Vecs)))
	dst = AppendU32(dst, uint32(b.Rows()))
	for i, v := range b.Vecs {
		c := b.Schema.Cols[i]
		dst = AppendStr(dst, c.Name)
		dst = append(dst, byte(c.Type))
		dst = AppendU32(dst, uint32(c.Width))
		at := len(dst)
		dst = v.EncodeBytes(AppendU32(dst, 0), 0, v.Len())
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// DecodeBatch parses a batch in the AppendBatch format.
func DecodeBatch(r *Reader) (*table.Batch, error) {
	name := r.Str()
	ncols := int(r.U32())
	nrows := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	// A column takes at least 10 bytes: name length, type, width and
	// payload length.
	if ncols > 4096 || ncols > r.Rest()/10 || nrows > MaxFrame {
		return nil, fmt.Errorf("wire: implausible batch %d cols × %d rows in %d bytes: %w", ncols, nrows, r.Rest(), ErrProtocol)
	}
	cols := make([]table.Column, 0, ncols)
	vecs := make([]*table.Vector, 0, ncols)
	for i := 0; i < ncols; i++ {
		cname := r.Str()
		ctype := table.Type(r.U8())
		width := int(r.U32())
		n := int(r.U32())
		data := r.Bytes(n)
		if r.Err() != nil {
			return nil, r.Err()
		}
		if ctype > table.Decimal {
			return nil, fmt.Errorf("wire: unknown column type %d: %w", ctype, ErrProtocol)
		}
		v, err := table.DecodeVector(ctype, data, nrows)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrProtocol)
		}
		cols = append(cols, table.Column{Name: cname, Type: ctype, Width: width})
		vecs = append(vecs, v)
	}
	b := &table.Batch{Schema: &table.Schema{Name: name, Cols: cols}, Vecs: vecs}
	b.SetRows(nrows)
	return b, nil
}

// Result is a completed query's stats as they cross the wire — the
// subset of core.Result a remote client can hold (plans and materialised
// rows stay server-side; batches stream separately).
type Result struct {
	Elapsed    float64 // submission to completion, simulated seconds
	Joules     float64 // whole-server meter delta over the query's window
	Attributed float64 // this query's energy share (Marginal + Shared)
	Marginal   float64 // energy charged directly by the query's processes
	Shared     float64 // idle-floor (residual) share
	Wait       float64 // admission queueing delay
	Granted    int64   // cores granted at admission
	RowCount   int64   // rows produced (survives Discard)
	Retries    int64   // transient-fault re-executions
}

// AppendResult appends a Result plus an error code and message (the
// MsgDone body).
func AppendResult(dst []byte, res Result, code uint32, msg string) []byte {
	dst = AppendU32(dst, code)
	dst = AppendStr(dst, msg)
	dst = AppendF64(dst, res.Elapsed)
	dst = AppendF64(dst, res.Joules)
	dst = AppendF64(dst, res.Attributed)
	dst = AppendF64(dst, res.Marginal)
	dst = AppendF64(dst, res.Shared)
	dst = AppendF64(dst, res.Wait)
	dst = AppendU64(dst, uint64(res.Granted))
	dst = AppendU64(dst, uint64(res.RowCount))
	dst = AppendU64(dst, uint64(res.Retries))
	return dst
}

// DecodeResult parses a MsgDone body.
func DecodeResult(r *Reader) (Result, uint32, string, error) {
	code := r.U32()
	msg := r.Str()
	res := Result{
		Elapsed:    r.F64(),
		Joules:     r.F64(),
		Attributed: r.F64(),
		Marginal:   r.F64(),
		Shared:     r.F64(),
		Wait:       r.F64(),
		Granted:    int64(r.U64()),
		RowCount:   int64(r.U64()),
		Retries:    int64(r.U64()),
	}
	return res, code, msg, r.Err()
}

// TenantBill is one tenant's line in a MsgMeterReport.
type TenantBill struct {
	Tenant      string
	AttributedJ float64 // Σ attributed joules over the tenant's statements
	Queries     int64   // SELECTs billed
	Inserts     int64   // deferred inserts billed
}

// MeterReport is the server's energy ledger: the wall meter, the idle
// floor nobody owns, and the per-tenant bill. After a drain,
// Σ Tenants.AttributedJ + UnattributedJ == MeterJ to float rounding —
// the attribution invariant extended across the wire.
type MeterReport struct {
	Now           float64 // simulated seconds
	MeterJ        float64 // whole-server meter reading
	UnattributedJ float64 // idle-floor intervals with no active query
	Tenants       []TenantBill
}

// AppendMeterReport appends a MsgMeterReport body.
func AppendMeterReport(dst []byte, m MeterReport) []byte {
	dst = AppendF64(dst, m.Now)
	dst = AppendF64(dst, m.MeterJ)
	dst = AppendF64(dst, m.UnattributedJ)
	dst = AppendU32(dst, uint32(len(m.Tenants)))
	for _, t := range m.Tenants {
		dst = AppendStr(dst, t.Tenant)
		dst = AppendF64(dst, t.AttributedJ)
		dst = AppendU64(dst, uint64(t.Queries))
		dst = AppendU64(dst, uint64(t.Inserts))
	}
	return dst
}

// DecodeMeterReport parses a MsgMeterReport body.
func DecodeMeterReport(r *Reader) (MeterReport, error) {
	m := MeterReport{
		Now:           r.F64(),
		MeterJ:        r.F64(),
		UnattributedJ: r.F64(),
	}
	n := int(r.U32())
	if r.Err() != nil {
		return m, r.Err()
	}
	// A tenant takes at least 25 bytes: name length and three 8-byte fields.
	if n > 1<<20 || n > r.Rest()/25 {
		return m, fmt.Errorf("wire: implausible tenant count %d in %d bytes: %w", n, r.Rest(), ErrProtocol)
	}
	for i := 0; i < n; i++ {
		m.Tenants = append(m.Tenants, TenantBill{
			Tenant:      r.Str(),
			AttributedJ: r.F64(),
			Queries:     int64(r.U64()),
			Inserts:     int64(r.U64()),
		})
	}
	return m, r.Err()
}
