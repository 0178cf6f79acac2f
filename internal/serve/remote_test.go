package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// FuzzPostObservations drives arbitrary observation batches into a
// parked remote session, after rounds%3 completed rounds (the seeding
// round takes several ordinals per item, later rounds fewer). posts is
// a ';'-separated list of "ITEM VALUE COMPILE" records: ITEM is a pool
// index (any int, negative and out of range included) or pK, the K-th
// pending suggestion's item; VALUE and COMPILE are strconv floats
// (NaN, ±Inf, negatives). Nothing may panic; the accepted count is the
// longest prefix of posts that are finite, non-negative and within the
// pending round's First+Count ordinals, and the remote log holds
// exactly that prefix. A reference session that gets only that prefix
// then finishes bit-identically once both are fed valid posts, so a
// rejected post leaves no trace in the §4.3 cost ledger or the model,
// and the round still completes. The seed corpus is in
// testdata/fuzz/FuzzPostObservations.
func FuzzPostObservations(f *testing.F) {
	f.Fuzz(func(t *testing.T, rounds uint8, posts string) {
		srv := NewServer(Options{})
		defer srv.Close()
		start := func(name string) *Session {
			spec := tinySpec("fuzz", name)
			spec.Source = SourceRemote
			s, err := srv.CreateSession(spec)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; ; r++ {
				sug := awaitRound(t, s)
				if r == int(rounds%3) || !sug.RoundPending {
					return s
				}
				completeRound(t, s, sug)
			}
		}
		fuzzed := start("fuzzed")
		sug := awaitRound(t, fuzzed)
		obs := parsePosts(posts, sug.Suggestions)

		upTo := make(map[int]int)
		have := make(map[int]int)
		for _, sg := range sug.Suggestions {
			upTo[sg.Item] = sg.First + sg.Count
			have[sg.Item] = sg.Posted
		}
		want := len(obs)
		for k, o := range obs {
			if !validCost(o.Value) || !validCost(o.Compile) || have[o.Item] >= upTo[o.Item] {
				want = k
				break
			}
			have[o.Item]++
		}
		before := remoteLog(fuzzed.remote)
		posted := fuzzed.remote.Posted()

		n, err := fuzzed.PostObservations(obs)
		switch {
		case n != want:
			t.Fatalf("accepted %d of %d posts, want %d (err %v)", n, len(obs), want, err)
		case n == len(obs) && err != nil:
			t.Fatalf("every post accepted, but err = %v", err)
		case n < len(obs) && !errors.Is(err, ErrBadObservation):
			t.Fatalf("post %d rejected with %v, want ErrBadObservation", n, err)
		case fuzzed.remote.Posted() != posted+int64(n):
			t.Fatalf("posted count %d, want %d", fuzzed.remote.Posted(), posted+int64(n))
		}
		for _, o := range obs[:n] {
			before[o.Item] = append(before[o.Item], remoteObs{value: o.Value, compile: o.Compile})
		}
		if got := remoteLog(fuzzed.remote); !sameLog(got, before) {
			t.Fatalf("remote log %v, want %v (the earlier log plus the accepted prefix)", got, before)
		}

		ref := start("reference")
		if m, err := ref.PostObservations(obs[:n]); m != n || err != nil {
			t.Fatalf("reference took %d of the %d-post prefix: %v", m, n, err)
		}
		for _, s := range []*Session{fuzzed, ref} {
			if err := feedUntilDone(s, time.Minute); err != nil {
				t.Fatal(err)
			}
			waitDone(t, s, time.Minute)
			if st := s.Info().Status; st != StatusDone {
				t.Fatalf("session %s ended %s: %v", s.key, st, s.Err())
			}
		}
		requireSameSessionResult(t, "fuzzed vs prefix-only", sessionResult(t, fuzzed), sessionResult(t, ref))
	})
}

// awaitRound waits until s has published a round that still needs
// posts, or has finished.
func awaitRound(t *testing.T, s *Session) SuggestionList {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		sug, err := s.Suggestions()
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range sug.Suggestions {
			if sg.Posted < sg.First+sg.Count {
				return sug
			}
		}
		select {
		case <-s.Done():
			return SuggestionList{Status: s.Info().Status}
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s published no round (status %s)", s.key, sug.Status)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// completeRound posts every ordinal the round still needs.
func completeRound(t *testing.T, s *Session, sug SuggestionList) {
	t.Helper()
	var obs []ObservationPost
	for _, sg := range sug.Suggestions {
		for ord := sg.Posted; ord < sg.First+sg.Count; ord++ {
			obs = append(obs, ObservationPost{Item: sg.Item, Value: syntheticValue(sg.Item, ord), Compile: syntheticCompile})
		}
	}
	if n, err := s.PostObservations(obs); n != len(obs) || err != nil {
		t.Fatalf("completing the round took %d of %d posts: %v", n, len(obs), err)
	}
}

// parsePosts decodes FuzzPostObservations' posts argument, at most 64
// records. A field that does not parse reads as 1 (item: suggestion 0).
func parsePosts(posts string, sugs []Suggestion) []ObservationPost {
	var out []ObservationPost
	for _, rec := range strings.Split(posts, ";") {
		f := strings.Fields(rec)
		if len(f) == 0 || len(out) == 64 {
			continue
		}
		o := ObservationPost{Value: 1}
		tok, suggested := strings.CutPrefix(f[0], "p")
		k, err := strconv.Atoi(tok)
		if err != nil {
			k, suggested = 0, true
		}
		switch {
		case !suggested:
			o.Item = k
		case len(sugs) > 0:
			o.Item = sugs[max(k, 0)%len(sugs)].Item
		}
		if len(f) > 1 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				o.Value = v
			}
		}
		if len(f) > 2 {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				o.Compile = v
			}
		}
		out = append(out, o)
	}
	return out
}

// remoteLog copies the source's per-item observation log.
func remoteLog(r *RemoteSource) map[int][]remoteObs {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int][]remoteObs, len(r.obs))
	for item, log := range r.obs {
		out[item] = append([]remoteObs(nil), log...)
	}
	return out
}

// sameLog compares two logs bit for bit (so -0 differs from 0). Logs
// hold no empty entries: an item's log starts with its first post.
func sameLog(a, b map[int][]remoteObs) bool {
	if len(a) != len(b) {
		return false
	}
	for item, log := range a {
		if len(log) != len(b[item]) {
			return false
		}
		for i, o := range log {
			p := b[item][i]
			if math.Float64bits(o.value) != math.Float64bits(p.value) ||
				math.Float64bits(o.compile) != math.Float64bits(p.compile) {
				return false
			}
		}
	}
	return true
}
