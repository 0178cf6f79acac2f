// alic-lint is the module's static-contract multichecker: it runs the
// internal/analysis/passes suite (detfloat, noalloc, parfor,
// registry) over the given packages, resolving //alic:allow
// suppression comments, and exits non-zero on any unsuppressed
// finding. It is the compile-time counterpart of the runtime
// determinism goldens and AllocsPerRun pins; CI runs it as a blocking
// job.
//
// Usage:
//
//	go run ./cmd/alic-lint [-json] [-suppressed] [packages]
//
// With no packages, ./... is checked. -json emits one finding per
// line ({"analyzer","pos","message","suppressed","reason"}) so
// tooling can diff finding counts across revisions. -suppressed also
// lists suppressed findings in text mode (JSON mode always includes
// them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"alic/internal/analysis"
	"alic/internal/analysis/passes/detfloat"
	"alic/internal/analysis/passes/noalloc"
	"alic/internal/analysis/passes/parfor"
	"alic/internal/analysis/passes/registry"
)

var suite = []*analysis.Analyzer{
	detfloat.Analyzer,
	noalloc.Analyzer,
	parfor.Analyzer,
	registry.Analyzer,
}

type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON finding per line (suppressed included)")
	showSuppressed := flag.Bool("suppressed", false, "also list suppressed findings in text mode")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: alic-lint [-json] [-suppressed] [packages]\n\nAnalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld := analysis.NewLoader(analysis.LoadConfig{Tests: true})
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alic-lint: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alic-lint: %v\n", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	rel := func(path string) string {
		if cwd == "" {
			return path
		}
		if r, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return path
	}

	active := 0
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if !f.Suppressed {
			active++
		}
		pos := fmt.Sprintf("%s:%d:%d", rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column)
		switch {
		case *jsonOut:
			enc.Encode(jsonFinding{
				Analyzer:   f.Analyzer,
				Pos:        pos,
				Message:    f.Message,
				Suppressed: f.Suppressed,
				Reason:     f.Reason,
			})
		case f.Suppressed && *showSuppressed:
			fmt.Printf("%s: suppressed (%s): %s (%s)\n", pos, f.Reason, f.Message, f.Analyzer)
		case !f.Suppressed:
			fmt.Printf("%s: %s (%s)\n", pos, f.Message, f.Analyzer)
		}
	}
	suppressed := len(findings) - active
	fmt.Fprintf(os.Stderr, "alic-lint: %d package(s), %d finding(s), %d suppressed\n",
		len(pkgs), active, suppressed)
	if active > 0 {
		os.Exit(1)
	}
}
