package faults

import "math/rand"

// Test files pin literal seeds on purpose; the constructor rule exempts
// them.
func seedForTest() *rand.Rand { return rand.New(rand.NewSource(1)) }
