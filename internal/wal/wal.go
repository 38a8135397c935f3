// Package wal implements a write-ahead log with group commit and crash
// recovery.
//
// §5.2 of the paper singles logging out: "it may make sense to increase
// the batching factor (and increase response time) to avoid frequent
// commits on stable storage". The Log's batching factor and timeout are
// exactly that knob: commits are held until BatchSize records are pending
// (or Timeout elapses) and flushed with a single sequential device write,
// trading commit latency for fewer, larger log I/Os — and therefore fewer
// joules on the log device.
//
// Unlike the devices' pure timing planes, the log also keeps the byte
// image it would have on disk: every record carries a length header and a
// CRC32 checksum, a crash preserves only the durable image plus a torn
// prefix of any in-flight flush, and Replay walks the image back into
// records, truncating the torn or corrupt tail — the classic ARIES-style
// contract that recovery trusts exactly the checksummed prefix.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"energydb/internal/sim"
	"energydb/internal/storage"
)

// Stats counts log activity.
type Stats struct {
	Commits       int64 // records made durable
	Flushes       int64
	BytesWritten  int64   // payload bytes made durable
	DeviceBytes   int64   // on-device bytes including record headers
	FailedFlushes int64   // flushes that failed with a device error
	TotalLatency  float64 // sum of per-commit (durable - submit) times
}

// MeanLatency reports average commit latency.
func (s Stats) MeanLatency() float64 {
	if s.Commits == 0 {
		return 0
	}
	return s.TotalLatency / float64(s.Commits)
}

// Syncer is a device supporting synchronous write barriers; hw.Disk (a
// rotating disk or a flash drive) implements it.
type Syncer interface {
	Sync(p *sim.Proc) error
}

// record layout on the device:
//
//	[u32 totalLen][u32 crc][u64 lsn][u32 payloadLen][payload bytes]
//
// totalLen counts the whole record including the header; crc covers
// everything after the crc field (lsn, payloadLen, payload). A record
// whose bytes are incomplete or whose crc mismatches ends replay.
const recHeader = 4 + 4 + 8 + 4

type record struct {
	lsn     int64
	payload []byte
	arrival float64
}

func encodeRecord(buf []byte, lsn int64, payload []byte) []byte {
	total := recHeader + len(payload)
	off := len(buf)
	buf = append(buf, make([]byte, total)...)
	b := buf[off:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(total))
	binary.LittleEndian.PutUint64(b[8:16], uint64(lsn))
	binary.LittleEndian.PutUint32(b[16:20], uint32(len(payload)))
	copy(b[recHeader:], payload)
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[8:total]))
	return buf
}

// ReplayRecord is one durable record decoded from a log image.
type ReplayRecord struct {
	LSN     int64
	Payload []byte
}

// Replay walks an on-device log image, verifying each record's length
// and checksum, and returns the decoded records plus the length of the
// valid byte prefix. Decoding stops at the first incomplete (torn) or
// checksum-corrupt record; everything after it is discarded, because
// nothing past an unverifiable record can be trusted to be record-
// aligned.
func Replay(img []byte) (recs []ReplayRecord, valid int) {
	off := 0
	for off+recHeader <= len(img) {
		b := img[off:]
		total := int(binary.LittleEndian.Uint32(b[0:4]))
		if total < recHeader || off+total > len(img) {
			break // torn or nonsense length
		}
		if crc32.ChecksumIEEE(b[8:total]) != binary.LittleEndian.Uint32(b[4:8]) {
			break // corrupt record
		}
		lsn := int64(binary.LittleEndian.Uint64(b[8:16]))
		plen := int(binary.LittleEndian.Uint32(b[16:20]))
		if recHeader+plen != total {
			break
		}
		recs = append(recs, ReplayRecord{
			LSN:     lsn,
			Payload: append([]byte(nil), b[recHeader:total]...),
		})
		off += total
	}
	return recs, off
}

// Log is a group-commit write-ahead log on a dedicated device.
type Log struct {
	eng *sim.Engine
	dev storage.BlockDevice

	// BatchSize is the group-commit batching factor: a flush is forced
	// when this many commits are pending. 1 disables batching.
	BatchSize int
	// Timeout bounds how long the first pending commit waits before the
	// batch is flushed regardless of size. 0 means only size triggers.
	Timeout float64

	lsn          int64
	image        []byte // bytes durable on the device
	writing      []byte // bytes of the flush currently in flight
	pending      []record
	batchID      int64 // id of the currently filling batch
	flushedBatch int64 // highest settled (durable or failed) batch id
	flushing     bool
	failed       map[int64]error // device error per failed batch
	cond         *sim.Cond
	stats        Stats
}

// NewLog creates a log writing to dev.
func NewLog(eng *sim.Engine, dev storage.BlockDevice, batchSize int, timeout float64) *Log {
	if batchSize < 1 {
		panic(fmt.Sprintf("wal: batch size %d", batchSize))
	}
	return &Log{
		eng: eng, dev: dev,
		BatchSize: batchSize, Timeout: timeout,
		batchID: 1,
		failed:  map[int64]error{},
		cond:    sim.NewCond(eng, "wal"),
	}
}

// Stats returns a copy of the counters.
func (l *Log) Stats() Stats { return l.stats }

// NextLSN reports the next log sequence number to be assigned.
func (l *Log) NextLSN() int64 { return l.lsn + 1 }

// DurableBytes reports the size of the durable on-device image.
func (l *Log) DurableBytes() int64 { return int64(len(l.image)) }

// Commit appends a record of the given payload size (content all zeros —
// the timing-only path) and blocks until it is durable. See Append.
func (l *Log) Commit(p *sim.Proc, recBytes int64) (int64, error) {
	if recBytes <= 0 {
		panic(fmt.Sprintf("wal: commit of %d bytes", recBytes))
	}
	return l.Append(p, make([]byte, recBytes))
}

// Append adds a record carrying payload and blocks the calling process
// until the record is durable (its batch has been flushed and synced).
// If the batch's device write fails, every commit in the batch fails
// with that error and nothing in the batch is durable.
func (l *Log) Append(p *sim.Proc, payload []byte) (int64, error) {
	l.lsn++
	lsn := l.lsn
	my := l.batchID
	l.pending = append(l.pending, record{lsn: lsn, payload: payload, arrival: p.Now()})

	switch {
	case len(l.pending) >= l.BatchSize:
		// This process completes the batch and performs the write itself.
		l.flush(p)
	case len(l.pending) == 1 && l.Timeout > 0:
		// First record of the batch arms the timeout flush.
		batch := my
		l.eng.After(l.Timeout, "wal-timeout", func() {
			if l.batchID == batch && len(l.pending) > 0 && !l.flushing {
				l.eng.Go("wal-flush", func(fp *sim.Proc) { l.flush(fp) })
			}
		})
	}
	for l.flushedBatch < my {
		l.cond.Wait(p)
	}
	if err := l.failed[my]; err != nil {
		return 0, fmt.Errorf("wal: batch %d flush: %w", my, err)
	}
	return lsn, nil
}

// flush writes the pending batch with one sequential I/O and wakes its
// waiters. New commits arriving during the write join the next batch.
func (l *Log) flush(p *sim.Proc) {
	if len(l.pending) == 0 || l.flushing {
		return
	}
	l.flushing = true
	batch := l.batchID
	recs := l.pending
	l.batchID++
	l.pending = nil

	var buf []byte
	var payloadBytes int64
	for _, r := range recs {
		buf = encodeRecord(buf, r.lsn, r.payload)
		payloadBytes += int64(len(r.payload))
	}
	l.writing = buf
	err := l.dev.Write(p, int64(len(l.image)), int64(len(buf)))
	if err == nil {
		if s, ok := l.dev.(Syncer); ok {
			err = s.Sync(p) // the flush is synchronous: pay the write barrier
		}
	}

	now := p.Now()
	if err != nil {
		// The batch never became durable: nothing joins the image and
		// every waiter in the batch learns the device error.
		l.failed[batch] = err
		l.stats.FailedFlushes++
	} else {
		l.image = append(l.image, buf...)
		for _, r := range recs {
			l.stats.TotalLatency += now - r.arrival
		}
		l.stats.Commits += int64(len(recs))
		l.stats.Flushes++
		l.stats.BytesWritten += payloadBytes
		l.stats.DeviceBytes += int64(len(buf))
	}
	l.writing = nil
	l.flushedBatch = batch
	l.flushing = false
	l.cond.Broadcast()

	// A batch may have filled while we were writing.
	if len(l.pending) >= l.BatchSize {
		l.flush(p)
	}
}

// CrashImage returns the byte image a crash at this instant would leave
// on the device: the durable image plus a torn prefix of any flush that
// was in flight (tornFrac in [0,1] selects how much of the in-flight
// write landed). Pending records that never entered a flush are lost.
func (l *Log) CrashImage(tornFrac float64) []byte {
	img := append([]byte(nil), l.image...)
	if len(l.writing) > 0 && tornFrac > 0 {
		n := int(tornFrac * float64(len(l.writing)))
		if n > len(l.writing) {
			n = len(l.writing)
		}
		img = append(img, l.writing[:n]...)
	}
	return img
}

// Recover resets the log onto a post-crash image: the torn or corrupt
// tail is truncated, the valid prefix becomes the durable image, the
// next LSN follows the last durable record, and all in-flight state is
// dropped (the crash already unwound every waiting process). It returns
// the replayed records for the storage layer to reapply.
func (l *Log) Recover(img []byte) []ReplayRecord {
	recs, valid := Replay(img)
	l.image = append(l.image[:0], img[:valid]...)
	l.writing = nil
	l.pending = nil
	l.flushing = false
	l.failed = map[int64]error{}
	l.flushedBatch = l.batchID - 1
	l.cond = sim.NewCond(l.eng, "wal") // drop waiters killed by the crash
	l.lsn = 0
	if n := len(recs); n > 0 {
		l.lsn = recs[n-1].LSN
	}
	return recs
}
