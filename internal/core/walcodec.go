package core

import (
	"encoding/binary"
	"fmt"

	"energydb/internal/table"
)

// A WAL insert record is a header over the rows in the engine's one row
// byte form (table.EncodeRows — what a row-store page holds):
//
//	[u16 nameLen][name][u64 startRow][u32 nRows][u32 nCols][rows][zero padding]
//
// startRow is the table's row count when the batch committed, so replay
// can tell a record the placement checkpoint already covers from one it
// must reapply. Column types come from the live schema, which the catalog
// keeps — this engine models data loss, not catalog loss. Payloads are
// zero-padded to walMinPayload so a tiny insert still pays a realistic
// minimum commit on the log device; nRows delimits the padding.
const walMinPayload = 64

func encodeInsert(startRow int64, rows *table.Batch) []byte {
	name := rows.Schema.Name
	buf := make([]byte, 0, max(walMinPayload, 2+len(name)+16+int(rows.ByteSize())))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(startRow))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rows.Rows()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows.Vecs)))
	buf = rows.EncodeRows(buf, 0, rows.Rows())
	for len(buf) < walMinPayload {
		buf = append(buf, 0)
	}
	return buf
}

// decodeInsert parses a record against the live schemas. The bytes are
// untrusted (a log tail can hold anything a CRC happens to bless): nothing
// is sized from a header field the payload cannot back.
func decodeInsert(payload []byte, schemas map[string]*table.Schema) (startRow int64, rows *table.Batch, err error) {
	if len(payload) < 2 || len(payload) < 2+int(binary.LittleEndian.Uint16(payload))+16 {
		return 0, nil, fmt.Errorf("core: truncated wal insert record")
	}
	n := 2 + int(binary.LittleEndian.Uint16(payload)) // end of the name
	s, ok := schemas[string(payload[2:n])]
	if !ok {
		return 0, nil, fmt.Errorf("core: wal insert into unknown table %q", payload[2:n])
	}
	hdr := payload[n : n+16]
	if nCols := binary.LittleEndian.Uint32(hdr[12:]); int(nCols) != len(s.Cols) {
		return 0, nil, fmt.Errorf("core: wal insert into %q has %d columns, schema has %d", s.Name, nCols, len(s.Cols))
	}
	rows = table.NewBatch(s, 0)
	_, err = table.DecodeRowsPrefixInto(rows, payload[n+16:], int(binary.LittleEndian.Uint32(hdr[8:])))
	return int64(binary.LittleEndian.Uint64(hdr)), rows, err
}
