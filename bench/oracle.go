package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed expected.json
var expectedJSON []byte

// oracle holds the pinned outputs every pass is checked against. Exhaustive
// cells are seed-independent, so their pins hold at any -seed.
type oracle struct {
	// Explore pins the unreduced cells field for field; explore-plain and
	// explore-parallel are both held to these, which is what makes them
	// equal to each other.
	Explore map[string]explorePin `json:"explore"`
	// Reduced pins only the verdict and the unreduced node count a reduced
	// walk may not exceed, so a better reduction is not a failure.
	Reduced map[string]reducedPin `json:"reduced"`
	Chaos   map[string]chaosPin   `json:"chaos"`
}

type explorePin struct {
	Verdict   string `json:"verdict,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	States    int    `json:"states,omitempty"`
	Terminals int    `json:"terminals,omitempty"`
	Visited   int    `json:"visited,omitempty"`
	Patterns  int    `json:"patterns,omitempty"`
}

type reducedPin struct {
	Verdict        string `json:"verdict"`
	UnreducedNodes int    `json:"unreduced_nodes"`
}

// chaosPin pins a sweep's violated count, either at every seed (the
// crash-only cell never violates) or at one named seed.
type chaosPin struct {
	Violated int   `json:"violated"`
	AnySeed  bool  `json:"any_seed,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(expectedJSON, &o); err != nil {
		return nil, fmt.Errorf("bench/expected.json: %w", err)
	}
	return &o, nil
}

func verdictOf(conforms bool) string {
	if conforms {
		return "CONFORMS"
	}
	return "VIOLATES"
}
