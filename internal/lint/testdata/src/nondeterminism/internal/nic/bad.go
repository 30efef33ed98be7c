// Package nic holds the cross-package case: a seed-taking helper in one
// package whose callers live in another. Which seeds reach it cannot be
// seen from here, and need not be — the helper is itself the finding.
package nic

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// NewBadRand would be handed a literal by a caller in package fabric.
func NewBadRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `rand\.New starts a private random stream` `rand\.NewSource starts a private random stream`
}

// newPCG: the math/rand/v2 constructors are the same thing.
func newPCG(a, b uint64) *randv2.Rand {
	return randv2.New(randv2.NewPCG(a, b)) // want `rand\.New starts` `rand\.NewPCG starts`
}
