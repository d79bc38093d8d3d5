package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"firestore/internal/ycsb"
)

// The generator turns -seed into every input the program will see, before
// any timing starts: per-client op sequences, record values, document
// bodies. The same seed gives the same inputs (inputsSHA256 proves it);
// the three ycsb_a_* workloads share one generated sequence so their
// difference is the engine, not the traffic.

// valuePool is how many distinct record bodies the generator draws; a
// written value is a 16-byte header naming its writer plus one pool body,
// so 900-byte values cost 16 bytes of sequence each.
const valuePool = 64

// ycsbRecordSize is the paper's single 900-byte field (§V-B1).
const ycsbRecordSize = 900

// loaderClient marks a value written by the load phase.
const loaderClient = 0xFFFFFFFF

type ycsbOp struct {
	key  int32
	read bool
}

type ycsbInputs struct {
	records int
	ops     [][]ycsbOp // per client
	pool    [][]byte
	sha     string
}

// genYCSB builds workload A: 50% reads, 50% updates, scrambled zipfian
// (theta 0.99) over records keys.
func genYCSB(seed int64, records, clients, opsPerClient int) *ycsbInputs {
	in := &ycsbInputs{records: records, ops: make([][]ycsbOp, clients)}
	h := sha256.New()
	rng := rand.New(rand.NewSource(seed))
	in.pool = make([][]byte, valuePool)
	for i := range in.pool {
		in.pool[i] = make([]byte, ycsbRecordSize)
		rng.Read(in.pool[i])
		h.Write(in.pool[i])
	}
	zipf := ycsb.NewZipfian(records)
	for c := range in.ops {
		crng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
		ops := make([]ycsbOp, opsPerClient)
		for i := range ops {
			ops[i] = ycsbOp{key: int32(zipf.Next(crng)), read: crng.Intn(2) == 0}
			hashInts(h, int64(ops[i].key), b2i(ops[i].read))
		}
		in.ops[c] = ops
	}
	in.sha = hex.EncodeToString(h.Sum(nil))
	return in
}

// value renders the record body client writes to key as its seq-th op.
// The header lets the correctness check tell whose write a read returned.
func (in *ycsbInputs) value(key int32, client uint32, seq uint64) []byte {
	v := make([]byte, ycsbRecordSize)
	binary.BigEndian.PutUint32(v[0:], uint32(key))
	binary.BigEndian.PutUint32(v[4:], client)
	binary.BigEndian.PutUint64(v[8:], seq)
	copy(v[16:], in.pool[(uint64(key)+seq)%valuePool][16:])
	return v
}

func parseYCSBValue(v []byte) (key int32, client uint32, seq uint64, ok bool) {
	if len(v) != ycsbRecordSize {
		return 0, 0, 0, false
	}
	return int32(binary.BigEndian.Uint32(v[0:])), binary.BigEndian.Uint32(v[4:]), binary.BigEndian.Uint64(v[8:]), true
}

// Query-mix inputs: "restaurant" documents with ~12 fields.

var (
	cities     = []string{"SF", "NYC", "LA", "SEA", "CHI", "BOS", "AUS", "DEN", "PDX", "MIA", "ATL", "DAL", "PHX", "DET", "MSP", "SLC", "HNL", "ANC", "BNA", "MCI"}
	categories = []string{"bbq", "sushi", "pizza", "thai", "tacos", "ramen", "vegan", "diner", "indian", "greek"}
	tagWords   = []string{"patio", "late", "cheap", "fancy", "kids", "dogs", "wifi", "bar", "brunch", "quiet", "view", "live"}
)

type qmKind uint8

const (
	qmEqLimit   qmKind = iota // city == X limit 20 (auto index)
	qmZigZag                  // city == X and category == Y (zig-zag join of two auto indexes)
	qmComposite               // city == X order by avgRating desc limit 20 (composite index)
	qmCount                   // COUNT(city == X), index only
	qmUpdate                  // one field changes: wide diff, two entries move
	qmSet                     // full document (re)written
	qmDelete                  // every entry removed
)

func (k qmKind) isQuery() bool { return k <= qmCount }

type qmOp struct {
	kind qmKind
	city uint8
	cat  uint8
	doc  int32 // document index for writes
	val  int32 // new numRatings (update) or revision (set)
}

// restaurant is the shadow state of one document: the generator decides
// it, the clients apply it, the check compares the database with it.
type restaurant struct {
	exists  bool
	rev     int32 // bumps on every full Set; drives avgRating and tags
	ratings int32 // numRatings, the field Update changes
}

type qmInputs struct {
	docs int
	ops  [][]qmOp
	sha  string
}

// genQueryMix builds the 70/20/10 query/update/set-delete mix. Client c
// owns the documents with index ≡ c (mod clients), so each document has
// one writer and its final state is that client's last acked op; the
// generator tracks existence so no Update or Delete ever targets a
// missing document.
func genQueryMix(seed int64, docs, clients, opsPerClient int) *qmInputs {
	in := &qmInputs{docs: docs, ops: make([][]qmOp, clients)}
	h := sha256.New()
	for c := range in.ops {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 101))
		owned := (docs - c + clients - 1) / clients
		deleted := []int32{} // owned documents currently absent
		live := make([]bool, owned)
		for i := range live {
			live[i] = true
		}
		pickLive := func() int32 {
			for {
				if i := rng.Intn(owned); live[i] {
					return int32(i)
				}
			}
		}
		ops := make([]qmOp, opsPerClient)
		for i := range ops {
			op := qmOp{city: uint8(rng.Intn(len(cities))), cat: uint8(rng.Intn(len(categories)))}
			switch r := rng.Intn(100); {
			case r < 70:
				op.kind = qmKind(r % 4)
			case r < 90:
				op.kind = qmUpdate
				op.doc = pickLive()*int32(clients) + int32(c)
				op.val = int32(rng.Intn(5000))
			default:
				// Deletes and re-creating Sets alternate so the collection
				// stays within a few documents of its loaded size.
				if len(deleted) < 8 && rng.Intn(2) == 0 {
					op.kind = qmDelete
					j := pickLive()
					live[j] = false
					deleted = append(deleted, j)
					op.doc = j*int32(clients) + int32(c)
				} else {
					op.kind = qmSet
					var j int32
					if len(deleted) > 0 {
						j = deleted[0]
						deleted = deleted[1:]
						live[j] = true
					} else {
						j = pickLive()
					}
					op.doc = j*int32(clients) + int32(c)
					op.val = int32(i + 1)
				}
			}
			ops[i] = op
			hashInts(h, int64(op.kind), int64(op.city), int64(op.cat), int64(op.doc), int64(op.val))
		}
		in.ops[c] = ops
	}
	in.sha = hex.EncodeToString(h.Sum(nil))
	return in
}

func restaurantID(i int32) string { return fmt.Sprintf("r%06d", i) }

// restaurantData renders document i in state st: city, category and most
// fields depend on i alone so query selectivity is stable; rev moves the
// rating and tags (a full Set changes many entries), ratings moves one.
func restaurantData(i int32, st restaurant) map[string]any {
	mix := uint32(i)*2654435761 + uint32(st.rev)*40503
	return map[string]any{
		"name":       fmt.Sprintf("Restaurant %d", i),
		"city":       cities[int(i)%len(cities)],
		"category":   categories[int(i/int32(len(cities)))%len(categories)],
		"price":      int64(i%4 + 1),
		"avgRating":  float64(mix%41)/10 + 1,
		"numRatings": int64(st.ratings),
		"open":       i%3 != 0,
		"owner":      fmt.Sprintf("owner-%d", i%997),
		"phone":      fmt.Sprintf("+1-555-%07d", i),
		"createdAt":  int64(1600000000 + i),
		"tags": []any{
			tagWords[mix%12], tagWords[(mix/12)%12], tagWords[(mix/144)%12],
		},
		"address": map[string]any{
			"street": fmt.Sprintf("%d Main St", i%900+1),
			"zip":    fmt.Sprintf("%05d", 10000+i%80000),
			"floor":  int64(i % 7),
		},
	}
}

// Listen fan-out inputs: "message" documents in rooms.

type listenInputs struct {
	seeded int
	rooms  int
	room   []uint8 // room of the i-th live write
	sha    string
}

func genListen(seed int64, seeded, rooms, writes int) *listenInputs {
	in := &listenInputs{seeded: seeded, rooms: rooms, room: make([]uint8, writes)}
	h := sha256.New()
	rng := rand.New(rand.NewSource(seed*1000003 + 7))
	for i := range in.room {
		in.room[i] = uint8(rng.Intn(rooms))
	}
	h.Write(in.room)
	hashInts(h, int64(seeded), int64(rooms))
	in.sha = hex.EncodeToString(h.Sum(nil))
	return in
}

// messageData renders a message; ts rises with every write so each new
// message enters the top of its room's "order by ts desc limit 20" window.
func messageData(room int, ts int64) map[string]any {
	return map[string]any{
		"room":   int64(room),
		"ts":     ts,
		"sender": fmt.Sprintf("user-%d", ts%211),
		"text":   fmt.Sprintf("message %d in room %d: the quick brown fox jumps over the lazy dog and keeps running", ts, room),
	}
}

func hashInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
