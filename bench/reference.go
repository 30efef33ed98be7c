package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// reference.json pins the simulated statistics of every workload at seed 1
// (and, for the workloads the seed does not reach, at every seed). A change
// meant only to make the simulator faster must leave all of them identical.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("bench/reference.json: %w", err)
	}
	return &ref, nil
}

// mismatches lists the pinned statistics that differ from the reference.
// checked is false when this run has nothing pinned to compare with: a
// reduced-size run, or a seeded workload away from the reference seed.
func (ref *reference) mismatches(w *workload, seed int64, small bool, got map[string]string) (keys []string, checked bool) {
	if small || (w.seeded && seed != ref.Seed) {
		return nil, false
	}
	want := ref.Workloads[w.pinnedAs()]
	for k, v := range want {
		if got[k] != v {
			keys = append(keys, fmt.Sprintf("%s: got %q want %q", k, got[k], v))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, fmt.Sprintf("%s: not in reference", k))
		}
	}
	sort.Strings(keys)
	return keys, true
}

// pin runs every workload once at the reference seed and rewrites
// bench/reference.json. Only a change to the benchmark itself, or a change
// that means to alter simulated results, has reason to run it.
func pin(path string) error {
	ref := reference{Seed: 1, Workloads: map[string]map[string]string{}}
	for i := range workloads {
		w := &workloads[i]
		r := w.run(ref.Seed, false, nil)
		if len(r.Violations) > 0 {
			return fmt.Errorf("%s: %v", w.name, r.Violations)
		}
		if prev, ok := ref.Workloads[w.pinnedAs()]; ok {
			if !samePinned(prev, r.Pinned) {
				return fmt.Errorf("%s: results differ from %s", w.name, w.pinnedAs())
			}
			continue
		}
		ref.Workloads[w.pinnedAs()] = r.Pinned
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
