package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alic/internal/snapshot"
)

// postSpec creates a session over HTTP and returns the status code and
// response body.
func postSpec(url, tenant, body string) (int, string, error) {
	resp, err := http.Post(url+"/v1/tenants/"+tenant+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(out), err
}

// TestCreateRejectsOversizedSpec pins the nobs and ncand caps: a
// create whose spec would generate (pool_size+test)×nobs observations,
// or reject-sample 20×ncand candidates per round, inside the request
// is answered 400 at once instead of tying up the server.
func TestCreateRejectsOversizedSpec(t *testing.T) {
	srv := NewServer(Options{})
	web := httptest.NewServer(srv.Handler())
	stuck := false
	defer func() {
		// Closing waits for in-flight handlers, which would hang the
		// failure report behind the runaway create.
		if !stuck {
			web.Close()
			srv.Close()
		}
	}()

	for _, tc := range []struct{ field, body string }{
		{"nobs", `{"name":"big","space":"mm","nobs":1073741824}`},
		{"ncand", `{"name":"wide","space":"mm","pool_size":64,"ncand":100000}`},
	} {
		type reply struct {
			code int
			body string
			err  error
		}
		done := make(chan reply, 1)
		go func() {
			code, body, err := postSpec(web.URL, "acme", tc.body)
			done <- reply{code, body, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.code != http.StatusBadRequest || !strings.Contains(r.body, tc.field) {
				t.Fatalf("oversized %s: HTTP %d %s, want 400 naming the field", tc.field, r.code, r.body)
			}
		case <-time.After(time.Second):
			stuck = true
			t.Fatalf("oversized %s: create still running after 1 s", tc.field)
		}
	}
	if n := len(srv.ListSessions("acme")); n != 0 {
		t.Fatalf("%d sessions created from oversized specs", n)
	}
}

// TestCreateRejectsUnknownFields pins the strict decoder on the create
// path: a field this build does not implement — such as the removed
// warm_start and warm_start_from — is a 400 that names it, never a
// session that silently runs without it.
func TestCreateRejectsUnknownFields(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	for field, body := range map[string]string{
		"warm_start":      `{"name":"warm","space":"mm","warm_start":{"space":"mm","dim":3,"points":[{"x":[0,0,0],"z":0}]}}`,
		"warm_start_from": `{"name":"from","space":"mm","warm_start_from":"acme/donor"}`,
		"nobbs":           `{"name":"typo","space":"mm","nobbs":4}`,
	} {
		code, out, err := postSpec(web.URL, "acme", body)
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest || !strings.Contains(out, `\"`+field+`\"`) {
			t.Fatalf("%s: HTTP %d %s, want 400 naming the field", field, code, out)
		}
	}
	code, out, err := postSpec(web.URL, "acme", `{"name":"twice","space":"mm"} {"name":"again"}`)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("trailing data: HTTP %d %s, want 400", code, out)
	}
	if n := len(srv.ListSessions("acme")); n != 0 {
		t.Fatalf("%d sessions created from rejected specs", n)
	}
}

// withSpec rewrites the spec section of a checkpoint container,
// keeping every other section byte for byte.
func withSpec(t *testing.T, ckpt []byte, edit func(map[string]any)) []byte {
	t.Helper()
	c, err := snapshot.Parse(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	for _, name := range c.Names() {
		pay, _ := c.Section(name)
		if name == secSpec {
			spec := map[string]any{}
			if err := json.Unmarshal(pay, &spec); err != nil {
				t.Fatal(err)
			}
			edit(spec)
			if pay, err = json.Marshal(spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Section(name, pay); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRestoreRejectsUnknownSpecFields pins the strict decoder on the
// restore path: a checkpoint whose spec carries a field this build no
// longer implements (here a warm-start payload) fails with ErrBadSpec
// naming the field instead of resuming without it, and Recover reports
// that file and restores the rest.
func TestRestoreRejectsUnknownSpecFields(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Options{CheckpointDir: dir})
	s, err := srv.CreateSession(tinySpec("acme", "good"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, time.Minute)
	srv.Close()

	good, err := os.ReadFile(filepath.Join(dir, "acme~good"+ckptExt))
	if err != nil {
		t.Fatal(err)
	}
	warm := withSpec(t, good, func(spec map[string]any) {
		spec["name"] = "warm"
		spec["warm_start"] = map[string]any{
			"space": "mm", "dim": 3,
			"points": []any{map[string]any{"x": []float64{0, 0, 0}, "z": 0}},
		}
	})

	plain := NewServer(Options{})
	_, err = plain.RestoreSession(warm)
	plain.Close()
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), `"warm_start"`) {
		t.Fatalf("restore of a warm_start checkpoint: err = %v, want ErrBadSpec naming warm_start", err)
	}

	warmFile := "acme~warm" + ckptExt
	if err := os.WriteFile(filepath.Join(dir, warmFile), warm, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewServer(Options{CheckpointDir: dir})
	defer rec.Close()
	n, err := rec.Recover()
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), warmFile) {
		t.Fatalf("recover error %v does not report %s as a bad spec", err, warmFile)
	}
	if _, err := rec.GetSession("acme", "warm"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("warm session restored: err = %v", err)
	}
	if _, err := rec.GetSession("acme", "good"); err != nil {
		t.Fatal(err)
	}
}

// FuzzSessionSpec drives arbitrary bytes through the create path's
// validation, parseSpec then normalize (the tenant comes from the URL,
// so it is fixed here). Nothing may panic, every rejection is
// ErrBadSpec, and every accepted spec is within the documented bounds,
// normalizes to itself, and survives the JSON round trip a checkpoint
// makes. The seed corpus is in testdata/fuzz/FuzzSessionSpec.
func FuzzSessionSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := parseSpec(data)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("parseSpec error %v is not ErrBadSpec", err)
			}
			return
		}
		spec.Tenant = "fuzz"
		got, err := normalize(spec)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("normalize error %v is not ErrBadSpec", err)
			}
			return
		}
		if err := specInBounds(got); err != nil {
			t.Fatalf("accepted spec %+v: %v", got, err)
		}
		again, err := normalize(got)
		if err != nil || again != got {
			t.Fatalf("normalize is not idempotent: %+v -> %+v (%v)", got, again, err)
		}
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		back, err := parseSpec(enc)
		if err != nil || back != got {
			t.Fatalf("spec does not round-trip: %s -> %+v (%v)", enc, back, err)
		}
	})
}

// specInBounds checks a normalized spec against the bounds the
// SessionSpec fields document.
func specInBounds(s SessionSpec) error {
	switch {
	case !validName(s.Tenant) || !validName(s.Name):
		return fmt.Errorf("bad tenant/name")
	case s.Space == "" || s.Kernel != s.Space:
		return fmt.Errorf("space %q, kernel %q", s.Space, s.Kernel)
	case s.Source != SourceSimulated && s.Source != SourceRemote:
		return fmt.Errorf("source %q", s.Source)
	case s.PoolSize < 8 || s.PoolSize > maxPoolSize:
		return fmt.Errorf("pool_size %d", s.PoolSize)
	case s.NInit < 1 || s.NInit > s.PoolSize:
		return fmt.Errorf("ninit %d", s.NInit)
	case s.NObs < 1 || s.NObs > maxNObs:
		return fmt.Errorf("nobs %d", s.NObs)
	case s.NCand < 1 || s.NCand > s.PoolSize:
		return fmt.Errorf("ncand %d", s.NCand)
	case s.MaxRounds < s.NInit || s.MaxRounds > maxRounds:
		return fmt.Errorf("max_rounds %d", s.MaxRounds)
	case s.CostBudget < 0:
		return fmt.Errorf("cost_budget %v", s.CostBudget)
	case s.Particles < 1 || s.Particles > 4096:
		return fmt.Errorf("particles %d", s.Particles)
	case s.Weight < 0 || s.Weight > maxTenantWeight:
		return fmt.Errorf("weight %d", s.Weight)
	}
	// The queue must hold the seeding round, and that product must not
	// have overflowed on the way.
	demand := s.NInit * s.NObs
	if demand/s.NObs != s.NInit || s.QueueCap < demand {
		return fmt.Errorf("queue_cap %d below ninit×nobs = %d×%d", s.QueueCap, s.NInit, s.NObs)
	}
	return nil
}
