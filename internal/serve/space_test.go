package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// synthSpec is a fast-completing session on a synthetic space.
func synthSpec(tenant, name, spaceName string) SessionSpec {
	return SessionSpec{
		Tenant:    tenant,
		Name:      name,
		Space:     spaceName,
		Seed:      7,
		PoolSize:  32,
		NInit:     2,
		NObs:      2,
		NCand:     8,
		MaxRounds: 5,
		Particles: 8,
	}
}

// TestHTTPUnknownSpaceListsRegistered is the spec-validation
// satellite: an unknown space name answers 400 with the ErrBadSpec
// taxonomy and the list of registered spaces in the error body.
func TestHTTPUnknownSpaceListsRegistered(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	spec := synthSpec("acme", "nope", "no/such/space")
	body, _ := json.Marshal(spec)
	resp, err := http.Post(web.URL+"/v1/tenants/acme/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown space: HTTP %d, want 400: %s", resp.StatusCode, msg)
	}
	var eb errorBody
	if err := json.Unmarshal(msg, &eb); err != nil {
		t.Fatalf("error body not JSON: %s", msg)
	}
	for _, want := range []string{"no/such/space", "mm", "synthetic/needle"} {
		if !strings.Contains(eb.Error, want) {
			t.Fatalf("error %q does not mention %q", eb.Error, want)
		}
	}

	// The direct API reports the same taxonomy.
	if _, err := srv.CreateSession(synthSpec("acme", "nope2", "no/such/space")); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("direct create: err = %v, want ErrBadSpec", err)
	}
}

// TestSpecSpaceValidation pins the spec-normalisation rules around the
// space/kernel fields and the live-space rejection.
func TestSpecSpaceValidation(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()

	// space and legacy kernel in conflict.
	spec := synthSpec("acme", "conflict", "synthetic/needle")
	spec.Kernel = "mm"
	if _, err := srv.CreateSession(spec); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("conflicting space/kernel: err = %v, want ErrBadSpec", err)
	}

	// Neither space nor kernel.
	spec = synthSpec("acme", "neither", "")
	if _, err := srv.CreateSession(spec); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("missing space: err = %v, want ErrBadSpec", err)
	}

	// Live spaces cannot be served: exec/cc resolves (it is registered
	// via providers_test.go) but the serving layer refuses to host it.
	spec = synthSpec("acme", "live", "exec/cc")
	err := func() error { _, err := srv.CreateSession(spec); return err }()
	if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("live space: err = %v, want ErrBadSpec", err)
	}
	if !strings.Contains(err.Error(), "exec/cc") {
		t.Fatalf("live-space error %q does not name the space", err)
	}

}

// TestHTTPSyntheticSessionCompletes is the acceptance-criterion tune:
// a non-SPAPT space runs a full session through the HTTP API — create,
// poll to done, fetch the winner.
func TestHTTPSyntheticSessionCompletes(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	spec := synthSpec("acme", "needle-1", "synthetic/needle")
	body, _ := json.Marshal(spec)
	resp, err := http.Post(web.URL+"/v1/tenants/acme/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", resp.StatusCode, info)
	}
	var si SessionInfo
	if err := json.Unmarshal(info, &si); err != nil {
		t.Fatal(err)
	}
	if si.Space != "synthetic/needle" {
		t.Fatalf("created session reports space %q", si.Space)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(web.URL + "/v1/tenants/acme/sessions/needle-1")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(data, &si); err != nil {
			t.Fatalf("info not JSON: %s", data)
		}
		if si.Status == StatusDone {
			break
		}
		if si.Status == StatusFailed {
			t.Fatalf("session failed: %s", si.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session did not finish (status %s)", si.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err = http.Get(web.URL + "/v1/tenants/acme/sessions/needle-1/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", resp.StatusCode, data)
	}
	var res SessionResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Winner.Config) != 4 {
		t.Fatalf("winner config %v, want 4 synthetic dimensions", res.Winner.Config)
	}
	for _, v := range res.Winner.Config {
		if v < 1 || v > 12 {
			t.Fatalf("winner config %v outside the synthetic range", res.Winner.Config)
		}
	}
}

// TestServedSpaceDeterminismAcrossServers pins that a synthetic-space
// session replays bit-identically on a fresh server (the cross-space
// layer does not break served determinism).
func TestServedSpaceDeterminismAcrossServers(t *testing.T) {
	run := func(workers int) *SessionResult {
		srv := NewServer(Options{Workers: workers})
		defer srv.Close()
		s, err := srv.CreateSession(synthSpec("acme", "det", "synthetic/plateau"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, time.Minute)
		return sessionResult(t, s)
	}
	a, b := run(1), run(4)
	if a.FinalError != b.FinalError || a.Cost != b.Cost || a.Winner.Item != b.Winner.Item {
		t.Fatalf("served synthetic session diverged across worker counts:\n%+v\n%+v", a, b)
	}
	if fmt.Sprint(a.Winner.Config) != fmt.Sprint(b.Winner.Config) {
		t.Fatalf("winner configs diverged: %v vs %v", a.Winner.Config, b.Winner.Config)
	}
}
