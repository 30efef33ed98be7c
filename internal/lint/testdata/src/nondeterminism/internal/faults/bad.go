package faults

import "math/rand"

// Every way a model might start a stream of its own is a finding, whatever
// the seed looks like. (These are the cases the interprocedural seedflow
// analyzer used to tell apart; the rule that replaced it does not try.)

func rawLiteral() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want `rand\.New starts a private random stream` `rand\.NewSource starts a private random stream`
}

const fixedSeed = 7

func namedConst() rand.Source {
	return rand.NewSource(fixedSeed) // want `rand\.NewSource starts a private random stream`
}

// badHelper's parameter is a derived seed at one call site and a literal
// at the other; the construction is reported either way.
func badHelper(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) } // want `rand\.New starts` `rand\.NewSource starts`

func useBadHelperDerived(seed int64) *rand.Rand { return badHelper(DeriveSeed(seed, "ok")) }

func useBadHelperRaw() *rand.Rand { return badHelper(1234) }

// mixup: arithmetic over two seeds of unknown origin.
func mixup(a, b int64) rand.Source {
	return rand.NewSource(a ^ b) // want `rand\.NewSource starts a private random stream`
}

// salted: even a seed that did come from DeriveSeed starts a second root.
func salted(seed int64) *rand.Rand {
	s := DeriveSeed(seed, "salted") ^ 0x9e3779b9
	return rand.New(rand.NewSource(s + 1)) // want `rand\.New starts` `rand\.NewSource starts`
}
