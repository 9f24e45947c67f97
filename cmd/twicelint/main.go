// Command twicelint enforces the repository's determinism, hygiene, and
// hot-path performance invariants (see internal/lint and DESIGN.md §12).
//
// Exit codes: 0 when the tree is clean, 1 when findings are reported, and
// 2 on load/type-check failure, so it slots directly into verify.sh next
// to go vet.
//
// Usage:
//
//	twicelint [-json] [packages]
//
// With no arguments it checks ./... relative to the working directory.
// Fixture packages under testdata directories are always skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/detutil"
	"repro/internal/lint"
)

// jsonFinding is the machine-readable finding shape. The field order is
// part of the output contract: file, line, col, rule, message.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: twicelint [-json] [packages]

Checks the packages (default ./...) against the TWiCe determinism and
hot-path rules:
  maprange       map iteration where order can leak into behaviour or output
  nondeterm      unseeded global randomness or wall-clock time under internal/
  droppederr     discarded error results outside tests
  truncconv      unguarded narrowing integer conversions under internal/
  hotpath        allocations reachable from a //twicelint:hotpath function
  probeguard     probe.Recorder calls not dominated by a nil guard
  resetcoverage  Reset/Clear methods that skip struct fields
  directive      malformed twicelint directives (unknown name, no rationale)
  deadexport     exported internal/ functions no non-test code references
                 (runs when the packages include a main package)

Exit codes: 0 clean, 1 findings reported, 2 load or type-check error.
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twicelint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:    f.Pos.Filename,
				Line:    f.Pos.Line,
				Col:     f.Pos.Column,
				Rule:    f.Rule,
				Message: f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "twicelint: encoding findings: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "twicelint: %d finding(s)%s\n", len(findings), ruleCounts(findings))
		os.Exit(1)
	}
}

// ruleCounts renders a per-rule breakdown like " (hotpath: 2, probeguard: 1)".
func ruleCounts(findings []lint.Finding) string {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Rule]++
	}
	s := " ("
	for i, r := range detutil.SortedKeys(counts) {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %d", r, counts[r])
	}
	return s + ")"
}
