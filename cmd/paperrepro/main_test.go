package main

import "testing"

// TestCheckFlags accepts every experiment name (and none) with a zero or
// positive -requests, and rejects an unknown -only name and a negative
// -requests.
func TestCheckFlags(t *testing.T) {
	for _, only := range append([]string{""}, experimentNames...) {
		for _, requests := range []int64{0, 8000} {
			if err := checkFlags(only, requests); err != nil {
				t.Errorf("checkFlags(%q, %d) = %v, want nil", only, requests, err)
			}
		}
	}
	for _, c := range []struct {
		only     string
		requests int64
	}{
		{"fig7", 0},
		{"Table3", 0},
		{"table3,area", 0},
		{"", -5},
		{"fig7b", -1},
	} {
		if err := checkFlags(c.only, c.requests); err == nil {
			t.Errorf("checkFlags(%q, %d) accepted", c.only, c.requests)
		}
	}
}
