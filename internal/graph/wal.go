package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/fault"
)

// Write-ahead delta log: the durable form of the mutation stream. Each
// record is one Batch, length-prefixed and CRC-checksummed:
//
//	length  uint32  payload byte count
//	crc     uint32  CRC32-Castagnoli of the payload
//	payload:
//	  seq   uint64  batch sequence (strictly increasing, the idempotency key)
//	  count uint32  op count
//	  ops   count × { op uint8 | src int32 | dst int32 | w int32 }
//
// All integers little-endian. The format has no file header: a log is any
// concatenation of records, so segments concatenate and an empty file is an
// empty log.
//
// Replay contract (the crash-consistency core, pinned by the
// kill-anywhere tests):
//
//   - A record that extends past the end of the log, or whose checksum
//     fails on the FINAL record, is a torn tail — the expected signature of
//     a crash mid-append. Replay repairs it by truncation: every record
//     before it is returned, the tail is reported, nothing errors.
//   - A checksum mismatch, bad op code, out-of-range node id or
//     batch-sequence gap anywhere NOT at the tail is corruption: replay
//     stops with a typed *fault.WALError wrapping fault.ErrWALCorrupt.
//     It never panics and never returns partially-decoded garbage.
//   - A record whose sequence is at or below the highest already seen is a
//     duplicated batch (a replayed append): it is skipped, counted, and
//     never double-applied.

// walOpBytes is the encoded size of one MutOp.
const walOpBytes = 13

// walHeaderBytes is the record header size (length + crc).
const walHeaderBytes = 8

// walPayloadHeader is the payload's fixed prefix (seq + count).
const walPayloadHeader = 12

// MaxWALBatchOps bounds the op count of a single record; a corrupt length
// field cannot demand an absurd allocation.
const MaxWALBatchOps = 1 << 20

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeBatch renders one batch as a WAL record.
func EncodeBatch(b Batch) []byte {
	payload := make([]byte, walPayloadHeader+walOpBytes*len(b.Ops))
	binary.LittleEndian.PutUint64(payload[0:], b.Seq)
	binary.LittleEndian.PutUint32(payload[8:], uint32(len(b.Ops)))
	at := walPayloadHeader
	for _, op := range b.Ops {
		payload[at] = op.Op
		binary.LittleEndian.PutUint32(payload[at+1:], uint32(op.Src))
		binary.LittleEndian.PutUint32(payload[at+5:], uint32(op.Dst))
		binary.LittleEndian.PutUint32(payload[at+9:], uint32(op.W))
		at += walOpBytes
	}
	rec := make([]byte, walHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, walCRC))
	copy(rec[walHeaderBytes:], payload)
	return rec
}

// WALReplay is the result of replaying one delta-log byte stream.
type WALReplay struct {
	// Batches are the decoded, deduplicated batches in sequence order,
	// excluding any at or below the afterSeq floor.
	Batches []Batch
	// Truncated reports a repaired torn tail; ValidBytes is the byte length
	// of the intact prefix (the offset a repair should truncate the file
	// to). Without a tail, ValidBytes == len(data).
	Truncated  bool
	ValidBytes int64
	// Skipped counts records at or below afterSeq (already folded into the
	// snapshot); Duplicates counts records that repeat a sequence already
	// seen above the floor (the duplicated-batch corruption class).
	Skipped    int
	Duplicates int
	// Offsets are the byte offsets of every structurally intact record, in
	// order (input for the fault injector's WAL corruption classes).
	Offsets []int
}

// walErr builds a typed replay error.
func walErr(rec int, off int64, rule, format string, args ...any) error {
	return &fault.WALError{Record: rec, Offset: off, Rule: rule, Detail: fmt.Sprintf(format, args...)}
}

// ReplayDeltaLog decodes a delta log against an n-node graph, skipping
// batches at or below afterSeq. See the package-level replay contract; in
// short: torn tails repair silently, everything else corrupt is a typed
// *fault.WALError, duplicates apply once.
func ReplayDeltaLog(data []byte, n int32, afterSeq uint64) (*WALReplay, error) {
	res := &WALReplay{ValidBytes: int64(len(data))}
	off := int64(0)
	rec := 0
	prev := afterSeq
	sawAny := false
	for off < int64(len(data)) {
		rest := int64(len(data)) - off
		if rest < walHeaderBytes {
			res.Truncated, res.ValidBytes = true, off
			return res, nil
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		tail := off+walHeaderBytes+length > int64(len(data))
		if length < walPayloadHeader || length > walPayloadHeader+walOpBytes*MaxWALBatchOps {
			// A nonsense length usually means the header itself is damaged.
			// If the claimed extent runs past EOF it is indistinguishable
			// from a torn tail and repairs by truncation; a bounded-but-bad
			// length mid-log is typed corruption.
			if tail || length > int64(len(data)) {
				res.Truncated, res.ValidBytes = true, off
				return res, nil
			}
			return nil, walErr(rec, off, "length", "payload length %d outside [%d,%d]",
				length, walPayloadHeader, walPayloadHeader+walOpBytes*MaxWALBatchOps)
		}
		if tail {
			res.Truncated, res.ValidBytes = true, off
			return res, nil
		}
		payload := data[off+walHeaderBytes : off+walHeaderBytes+length]
		atEOF := off+walHeaderBytes+length == int64(len(data))
		if got := crc32.Checksum(payload, walCRC); got != crc {
			if atEOF {
				// A damaged final record cannot be told apart from a torn
				// write of that record: repair by truncation.
				res.Truncated, res.ValidBytes = true, off
				return res, nil
			}
			return nil, walErr(rec, off, "crc", "checksum %08x, want %08x", got, crc)
		}
		seq := binary.LittleEndian.Uint64(payload[0:])
		count := int64(binary.LittleEndian.Uint32(payload[8:]))
		if walPayloadHeader+walOpBytes*count != length {
			return nil, walErr(rec, off, "length", "op count %d does not fill payload length %d", count, length)
		}
		res.Offsets = append(res.Offsets, int(off))
		switch {
		case seq <= afterSeq:
			res.Skipped++
		case sawAny && seq <= prev:
			res.Duplicates++
		default:
			if seq != prev+1 {
				return nil, walErr(rec, off, "seq-gap", "batch seq %d after %d", seq, prev)
			}
			b := Batch{Seq: seq, Ops: make([]MutOp, count)}
			at := int64(walPayloadHeader)
			for i := range b.Ops {
				op := MutOp{
					Op:  payload[at],
					Src: int32(binary.LittleEndian.Uint32(payload[at+1:])),
					Dst: int32(binary.LittleEndian.Uint32(payload[at+5:])),
					W:   int32(binary.LittleEndian.Uint32(payload[at+9:])),
				}
				if op.Op != OpInsert && op.Op != OpDelete {
					return nil, walErr(rec, off, "op", "op %d code %d", i, op.Op)
				}
				if op.Src < 0 || op.Src >= n || op.Dst < 0 || op.Dst >= n {
					return nil, walErr(rec, off, "range", "op %d edge (%d,%d) outside [0,%d)", i, op.Src, op.Dst, n)
				}
				b.Ops[i] = op
				at += walOpBytes
			}
			res.Batches = append(res.Batches, b)
			prev = seq
			sawAny = true
		}
		off += walHeaderBytes + length
		rec++
	}
	return res, nil
}
