package alic

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBinariesBuild smoke-tests that every command and example binary
// compiles. Few main packages have test files of their own, so without
// this a broken one only surfaces in tier-1 `go build ./...` runs. The
// list comes from `go list`, so a new command or example is covered
// without editing this test.
func TestBinariesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping build smoke test in -short mode")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(gobin, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`,
		"./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []string
	for _, path := range strings.Fields(string(out)) {
		pkgs = append(pkgs, "./"+strings.TrimPrefix(path, "alic/"))
	}
	if len(pkgs) == 0 {
		t.Fatal("go list found no main packages under ./cmd and ./examples")
	}
	for _, pkg := range pkgs {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			t.Parallel()
			// -o os.DevNull: build for errors only, keep the tree clean.
			cmd := exec.Command(gobin, "build", "-o", os.DevNull, pkg)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("go build %s failed: %v\n%s", pkg, err, out)
			}
		})
	}
}
