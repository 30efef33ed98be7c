//go:build race

package testbed

// The race detector's runtime allocates on its own account: 0.94 MB more
// for a 64-host NewMesh and 0.36 MB more for its first storm, measured
// (NewMesh's 0.94 MB is the same with a resident prefix).
func init() { raceAlloc = 1536 << 10 }
