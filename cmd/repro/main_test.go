package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain runs the command itself when REPRO_TEST_MAIN is set, so the
// tests below can drive the real binary through a child process.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExperimentErrorPrefixedOnce: an experiment's error is printed
// behind the command and experiment names once each, then the space
// that failed.
func TestExperimentErrorPrefixedOnce(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-experiment", "table1", "-kernels", "exec/cc", "-q")
	cmd.Env = append(os.Environ(), "REPRO_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("repro exited with %v, want a non-zero exit", err)
	}
	const want = "repro: table1: exec/cc: dataset: space exec/cc: cannot pre-generate a dataset for a live space\n"
	if got := stderr.String(); got != want {
		t.Fatalf("stderr %q, want %q", got, want)
	}
}
