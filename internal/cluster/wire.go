package cluster

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"firestore/internal/storage"
	"firestore/internal/truetime"
)

// The binary bodies of the six methods that carry keys and values. Writes,
// chains, rows and point-read results are in storage's codec, the bytes a
// WAL record or a segment holds; around them go uvarints (handle,
// timestamp, limit, counts) and one flags byte. Every count is checked
// against the bytes that remain before a slice is sized from it, and a
// body with bytes left over is refused.
//
// Request decoders run on the tablet server over a pooled buffer that is
// reused once the handler returns: get, getbatch, scan and chains alias it
// (an engine keeps no key it is asked about), apply and ingest copy every
// key and value out once, at its exact size (an engine keeps those).
// Response decoders run on the coordinator, over a body nothing else
// refers to, and alias it.

// Flag bits of a scan or chains request. A nil bound (= unbounded) travels
// as an empty field with its bit clear. A request with any other bit set
// is refused. (A response's one flag, More, is the low bit.)
const (
	flagLo = 4 << iota // Lo is set
	flagHi             // Hi is set
)

var (
	getCodec = codec[getReq, storage.BatchGet]{
		encReq: func(b []byte, r getReq) []byte {
			return storage.AppendBytes(appendUvarints(b, r.H, uint64(r.TS)), r.Key)
		},
		decReq: func(b []byte) (getReq, error) {
			d := storage.NewDecoder(b, false)
			return decoded(d, getReq{H: d.Uvarint(), TS: timestamp(d), Key: d.Bytes()})
		},
		encResp: storage.AppendBatchGet,
		decResp: func(b []byte) (storage.BatchGet, error) {
			d := storage.NewDecoder(b, false)
			return decoded(d, d.BatchGet())
		},
	}

	getBatchCodec = codec[getBatchReq, getBatchResp]{
		encReq: func(b []byte, r getBatchReq) []byte {
			return appendList(appendUvarints(b, r.H, uint64(r.TS)), r.Keys, storage.AppendBytes)
		},
		decReq: func(b []byte) (getBatchReq, error) {
			d := storage.NewDecoder(b, false)
			return decoded(d, getBatchReq{H: d.Uvarint(), TS: timestamp(d), Keys: list(d, 1, (*storage.Decoder).Bytes)})
		},
		encResp: func(b []byte, r getBatchResp) []byte { return appendList(b, r.Results, storage.AppendBatchGet) },
		decResp: func(b []byte) (getBatchResp, error) {
			d := storage.NewDecoder(b, false)
			return decoded(d, getBatchResp{Results: list(d, 3, (*storage.Decoder).BatchGet)})
		},
	}

	scanCodec = codec[scanReq, scanResp]{
		encReq: func(b []byte, r scanReq) []byte {
			b = appendUvarints(b, r.H, uint64(r.TS), uint64(r.Limit))
			b = append(b, flagLo*storage.Flag(r.Lo != nil)|flagHi*storage.Flag(r.Hi != nil))
			return storage.AppendBytes(storage.AppendBytes(b, r.Lo), r.Hi)
		},
		decReq: func(b []byte) (scanReq, error) {
			d := storage.NewDecoder(b, false)
			r := scanReq{H: d.Uvarint(), TS: timestamp(d), Limit: int(d.Uvarint())}
			f := d.Byte()
			if f&^(flagLo|flagHi) != 0 {
				return r, fmt.Errorf("scan flags %#x: unknown bits", f)
			}
			lo, errLo := bound(d, f&flagLo != 0)
			hi, errHi := bound(d, f&flagHi != 0)
			if err := cmp.Or(errLo, errHi); err != nil {
				return r, err
			}
			r.Lo, r.Hi = lo, hi
			return decoded(d, r)
		},
		encResp: func(b []byte, r scanResp) []byte {
			return appendList(append(b, storage.Flag(r.More)), r.Rows, storage.AppendRow)
		},
		decResp: func(b []byte) (scanResp, error) {
			d := storage.NewDecoder(b, false)
			return decoded(d, scanResp{More: d.Bool(), Rows: list(d, 3, (*storage.Decoder).Row)})
		},
	}

	// A chains request is a scan request that leaves TS zero.
	chainsCodec = codec[scanReq, chainsResp]{
		encReq: scanCodec.encReq,
		decReq: scanCodec.decReq,
		encResp: func(b []byte, r chainsResp) []byte {
			return appendList(append(b, storage.Flag(r.More)), r.Chains, storage.AppendChain)
		},
		decResp: func(b []byte) (chainsResp, error) {
			d := storage.NewDecoder(b, false)
			return decoded(d, chainsResp{More: d.Bool(), Chains: list(d, 3, (*storage.Decoder).Chain)})
		},
	}

	applyCodec = codec[applyReq, none]{
		encReq: func(b []byte, r applyReq) []byte {
			return storage.AppendWrites(appendUvarints(b, r.H), r.Writes, r.TS)
		},
		decReq: func(b []byte) (applyReq, error) {
			d := storage.NewDecoder(b, true)
			r := applyReq{H: d.Uvarint()}
			r.Writes, r.TS = d.Writes()
			return decoded(d, r)
		},
		encResp: appendNone,
		decResp: decodeNone,
	}

	ingestCodec = codec[ingestReq, none]{
		encReq: func(b []byte, r ingestReq) []byte {
			return appendList(appendUvarints(b, r.H), r.Chains, storage.AppendChain)
		},
		decReq: func(b []byte) (ingestReq, error) {
			d := storage.NewDecoder(b, true)
			return decoded(d, ingestReq{H: d.Uvarint(), Chains: list(d, 3, (*storage.Decoder).Chain)})
		},
		encResp: appendNone,
		decResp: decodeNone,
	}
)

func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendList[T any](b []byte, vs []T, one func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = one(b, v)
	}
	return b
}

// list decodes what appendList wrote; min is the least an element takes.
func list[T any](d *storage.Decoder, min int, one func(*storage.Decoder) T) (vs []T) {
	if n := d.Count(min); n > 0 {
		vs = make([]T, 0, n)
		for ; n > 0 && d.Err() == nil; n-- {
			vs = append(vs, one(d))
		}
	}
	return vs
}

// bound decodes a scan bound: nil unless set, and then never nil. A
// bound that is not set holds no bytes.
func bound(d *storage.Decoder, set bool) ([]byte, error) {
	b := d.Bytes()
	if b != nil && !set {
		return nil, fmt.Errorf("scan bound of %d bytes under a clear flag", len(b))
	}
	if b == nil && set {
		return []byte{}, nil
	}
	return b, nil
}

func timestamp(d *storage.Decoder) truetime.Timestamp { return truetime.Timestamp(d.Uvarint()) }

// decoded is v, unless d failed or has bytes left over.
func decoded[T any](d *storage.Decoder, v T) (T, error) { return v, d.Finish() }

func appendNone(b []byte, _ none) []byte { return b }

func decodeNone(b []byte) (none, error) { return none{}, storage.NewDecoder(b, false).Finish() }
