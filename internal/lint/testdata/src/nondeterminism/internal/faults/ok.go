// Package faults shows the seeding idiom the nondeterminism analyzer
// permits: one allowed root derives every stream's seed from the plan seed
// and a stable name, and every impairment model takes its *rand.Rand from
// that root — never from the global process-seeded source, and never from
// a constructor call of its own.
package faults

import (
	"hash/fnv"
	"math/rand"
)

// DeriveSeed mixes the fault seed with the link name so each link gets an
// independent but reproducible stream.
func DeriveSeed(seed int64, link string) int64 {
	h := fnv.New64a()
	h.Write([]byte(link))
	return seed ^ int64(h.Sum64())
}

// NewRand is the root: the one constructor call, allowed with its reason.
//
//unetlint:allow nondeterminism fixture root of every per-name stream; the seed is DeriveSeed's
func NewRand(seed int64, link string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, link)))
}

// iid drops cells independently from its own seeded stream.
type iid struct {
	rng  *rand.Rand
	rate float64
}

func newIID(seed int64, link string, rate float64) *iid {
	return &iid{rng: NewRand(seed, link), rate: rate}
}

func (l *iid) drop() bool { return l.rng.Float64() < l.rate }

// zipf shapes a stream it is handed; it starts none.
func zipf(seed int64, link string) *rand.Zipf {
	return rand.NewZipf(NewRand(seed, link), 1.1, 1, 100)
}
