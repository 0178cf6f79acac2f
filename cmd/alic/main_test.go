package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when ALIC_TEST_MAIN is set, so the
// tests below can drive the real binary through a child process.
func TestMain(m *testing.M) {
	if os.Getenv("ALIC_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runAlic runs the command with args and returns its stderr and
// whether it exited non-zero.
func runAlic(t *testing.T, args ...string) (stderr string, failed bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ALIC_TEST_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return errb.String(), err != nil
}

// TestFacadeErrorPrintedOnce: a facade error, whose text already
// starts with "alic:", is printed behind exactly one prefix.
func TestFacadeErrorPrintedOnce(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "mm", "-pool", "2"},
		{"-kernel", "mm", "-test", "0"},
	} {
		stderr, failed := runAlic(t, args...)
		if !failed {
			t.Fatalf("alic %v exited 0", args)
		}
		line := strings.TrimSuffix(stderr, "\n")
		if !strings.HasPrefix(line, "alic: ") || strings.Contains(line, "alic: alic:") ||
			strings.Contains(line, "\n") {
			t.Fatalf("alic %v: stderr %q, want one line behind one alic: prefix", args, stderr)
		}
	}
}

func TestErrorLine(t *testing.T) {
	if got := errorLine(errors.New("no such file")); got != "alic: no such file" {
		t.Fatalf("unprefixed error printed as %q", got)
	}
	if got := errorLine(errors.New("alic: pool smaller than NInit")); got != "alic: pool smaller than NInit" {
		t.Fatalf("prefixed error printed as %q", got)
	}
}
