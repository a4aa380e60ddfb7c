package main

import (
	"encoding/json"
	"os"
)

// writeBenchJSON writes a machine-readable benchmark result file
// (BENCH_policy.json, BENCH_topology.json) so future changes have a
// trajectory to compare against.
func writeBenchJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
