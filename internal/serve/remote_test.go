package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// httpJSON sends body (nil for none) and decodes the response into out
// (nil to discard), returning the status code.
func httpJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: HTTP %d, body not JSON: %s", method, url, resp.StatusCode, data)
		}
	}
	return resp.StatusCode
}

// pendingRound polls a remote session's suggestions until a round is
// published.
func pendingRound(t *testing.T, url string) SuggestionList {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var sug SuggestionList
		if code := httpJSON(t, http.MethodGet, url+"/suggestions", nil, &sug); code != http.StatusOK {
			t.Fatalf("suggestions: HTTP %d", code)
		}
		if sug.RoundPending && len(sug.Suggestions) > 0 {
			return sug
		}
		if time.Now().After(deadline) {
			t.Fatalf("no round published (status %s)", sug.Status)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPRejectsBadObservations pins the remote-post boundary: a
// negative or non-finite value or compile cost, a post for an item
// outside the pending round, and a post beyond the First+Count
// ordinals the round takes all answer 400 (ErrBadObservation). The
// accepted prefix of a rejected batch is kept, nothing rejected reaches
// the queue, and the session still completes on well-formed posts.
func TestHTTPRejectsBadObservations(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	defer srv.Close()
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	spec := tinySpec("acme", "guarded")
	spec.Source = SourceRemote
	if code := httpJSON(t, http.MethodPost, web.URL+"/v1/tenants/acme/sessions", spec, nil); code != http.StatusCreated {
		t.Fatalf("create: HTTP %d", code)
	}
	url := web.URL + "/v1/tenants/acme/sessions/guarded"
	sug := pendingRound(t, url)
	first := sug.Suggestions[0]
	if first.Posted != first.First || first.Count < 2 {
		t.Fatalf("unexpected first suggestion %+v", first)
	}
	pending := make(map[int]bool)
	for _, sg := range sug.Suggestions {
		pending[sg.Item] = true
	}
	outside := 0
	for pending[outside] {
		outside++
	}
	good := func(ord int) ObservationPost {
		return ObservationPost{Item: first.Item, Value: syntheticValue(first.Item, ord), Compile: syntheticCompile}
	}

	type postBody struct {
		Observations []ObservationPost `json:"observations"`
	}
	cases := []struct {
		name     string
		posts    []ObservationPost
		accepted int
	}{
		{"negative compile", []ObservationPost{{Item: first.Item, Value: 1, Compile: -5}}, 0},
		{"negative value", []ObservationPost{{Item: first.Item, Value: -1}}, 0},
		{"item outside the pending round", []ObservationPost{{Item: outside, Value: 1}}, 0},
		{"item outside the pool", []ObservationPost{{Item: spec.PoolSize + 10, Value: 1}}, 0},
		{"prefix kept before a bad post", []ObservationPost{good(first.First), {Item: first.Item, Value: 1, Compile: -1}}, 1},
	}
	for _, c := range cases {
		var acc acceptedBody
		code := httpJSON(t, http.MethodPost, url+"/observations", postBody{c.posts}, &acc)
		if code != http.StatusBadRequest || acc.Accepted != c.accepted {
			t.Fatalf("%s: HTTP %d accepted %d (%s), want 400 accepting %d",
				c.name, code, acc.Accepted, acc.Error, c.accepted)
		}
	}

	// Fill the item's remaining ordinals, plus one more than the round
	// takes: the surplus post is refused, not queued for a later round.
	var posts []ObservationPost
	for ord := first.First + 1; ord <= first.First+first.Count; ord++ {
		posts = append(posts, good(ord))
	}
	var acc acceptedBody
	if code := httpJSON(t, http.MethodPost, url+"/observations", postBody{posts}, &acc); code != http.StatusBadRequest ||
		acc.Accepted != first.Count-1 {
		t.Fatalf("over-post: HTTP %d accepted %d (%s), want 400 accepting %d", code, acc.Accepted, acc.Error, first.Count-1)
	}

	s, err := srv.GetSession("acme", "guarded")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.remote.Have(first.Item); got != first.First+first.Count {
		t.Fatalf("item %d has %d posts, want exactly %d", first.Item, got, first.First+first.Count)
	}
	if got := s.remote.Have(outside); got != 0 {
		t.Fatalf("item %d outside the round queued %d posts", outside, got)
	}
	// Non-finite values cannot be spelled in JSON; the Go API rejects
	// them the same way.
	for _, o := range []ObservationPost{
		{Item: sug.Suggestions[1].Item, Value: math.Inf(1)},
		{Item: sug.Suggestions[1].Item, Value: 1, Compile: math.NaN()},
	} {
		if n, err := s.PostObservations([]ObservationPost{o}); n != 0 || !errors.Is(err, ErrBadObservation) {
			t.Fatalf("post %+v: accepted %d, err %v; want ErrBadObservation", o, n, err)
		}
	}

	if err := feedUntilDone(s, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, 30*time.Second)
	info := s.Info()
	if info.Status != StatusDone || info.Acquired != spec.MaxRounds {
		t.Fatalf("session ended %s after %d acquisitions (err %v)", info.Status, info.Acquired, s.Err())
	}
	if !(info.Cost > 0) {
		t.Fatalf("cost %v after a guarded run", info.Cost)
	}
}
