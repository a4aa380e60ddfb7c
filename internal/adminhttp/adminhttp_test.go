package adminhttp

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"bestsync/internal/metric"
	"bestsync/internal/runtime"
	"bestsync/internal/transport"
)

// adminFixture is the daemon wiring in miniature: a live TCP cache, a
// fan-out source that can add/remove destinations at runtime, and the mux
// both daemons build from this package's handlers plus the cache's status
// handler.
type adminFixture struct {
	mux       *http.ServeMux
	cacheAddr string
	src       *runtime.Source
}

func newAdminFixture(t *testing.T) *adminFixture {
	t.Helper()
	// The destination cache the admin endpoint will add/remove.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep := transport.Serve(ln, 16)
	cache := runtime.NewCache(runtime.CacheConfig{
		ID: "admin-cache", Bandwidth: 1000, Tick: 5 * time.Millisecond,
	}, ep)
	t.Cleanup(func() { cache.Close(); ep.Close() })

	// A seed destination so the source can boot (sources need ≥ 1).
	seedNet := transport.NewLocal(16)
	seedCache := runtime.NewCache(runtime.CacheConfig{
		ID: "seed", Bandwidth: 1000, Tick: 5 * time.Millisecond,
	}, seedNet)
	t.Cleanup(func() { seedCache.Close(); seedNet.Close() })
	seedConn, err := seedNet.Dial("admin-src")
	if err != nil {
		t.Fatal(err)
	}
	src, err := runtime.NewFanoutSource(runtime.SourceConfig{
		ID: "admin-src", Metric: metric.ValueDeviation,
		Bandwidth: 100, Tick: 5 * time.Millisecond,
	}, []runtime.Destination{{CacheID: "seed", Conn: seedConn}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })

	mux := http.NewServeMux()
	mux.Handle("/status", cache.StatusHandler(10))
	mux.HandleFunc("/caches/add", AddHandler(src.AddDestination, "admin-src"))
	mux.HandleFunc("/caches/remove", RemoveHandler(src.RemoveDestination))
	return &adminFixture{mux: mux, cacheAddr: ln.Addr().String(), src: src}
}

func (f *adminFixture) do(t *testing.T, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	rec := httptest.NewRecorder()
	f.mux.ServeHTTP(rec, req)
	return rec
}

func TestStatusGet(t *testing.T) {
	f := newAdminFixture(t)
	rec := f.do(t, http.MethodGet, "/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var st runtime.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status body does not decode: %v", err)
	}
	if st.CacheID != "admin-cache" || st.Policy != "push" {
		t.Errorf("status = id %q policy %q, want admin-cache/push", st.CacheID, st.Policy)
	}

	if rec := f.do(t, http.MethodPost, "/status"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /status = %d, want 405", rec.Code)
	}
}

func TestAddRemoveHappyPath(t *testing.T) {
	f := newAdminFixture(t)
	addr := url.QueryEscape(f.cacheAddr)

	rec := f.do(t, http.MethodPost, "/caches/add?addr="+addr+"&weight=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("add = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "added") {
		t.Errorf("add body %q lacks confirmation", rec.Body.String())
	}
	found := false
	for _, sess := range f.src.Stats().Sessions {
		if sess.CacheID == f.cacheAddr {
			found = true
		}
	}
	if !found {
		t.Fatalf("added destination %s not among sessions", f.cacheAddr)
	}

	// Duplicate labels conflict (RemoveDestination is keyed by them).
	if rec := f.do(t, http.MethodPost, "/caches/add?addr="+addr); rec.Code != http.StatusConflict {
		t.Errorf("duplicate add = %d, want 409", rec.Code)
	}

	rec = f.do(t, http.MethodPost, "/caches/remove?addr="+addr)
	if rec.Code != http.StatusOK {
		t.Fatalf("remove = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	for _, sess := range f.src.Stats().Sessions {
		if sess.CacheID == f.cacheAddr && !sess.Ended {
			t.Errorf("removed destination still live")
		}
	}
}

func TestAddRejectsMalformedRequests(t *testing.T) {
	f := newAdminFixture(t)
	cases := []struct {
		name   string
		method string
		target string
		want   int
	}{
		{"wrong method", http.MethodGet, "/caches/add?addr=x:1", http.StatusMethodNotAllowed},
		{"missing addr", http.MethodPost, "/caches/add", http.StatusBadRequest},
		{"non-numeric weight", http.MethodPost, "/caches/add?addr=x:1&weight=heavy", http.StatusBadRequest},
		{"negative weight", http.MethodPost, "/caches/add?addr=x:1&weight=-2", http.StatusBadRequest},
		{"zero weight", http.MethodPost, "/caches/add?addr=x:1&weight=0", http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := f.do(t, c.method, c.target); rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.want)
		}
	}
}

func TestRemoveErrors(t *testing.T) {
	f := newAdminFixture(t)
	if rec := f.do(t, http.MethodGet, "/caches/remove?addr=x:1"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("wrong method = %d, want 405", rec.Code)
	}
	if rec := f.do(t, http.MethodPost, "/caches/remove"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing addr = %d, want 400", rec.Code)
	}
	if rec := f.do(t, http.MethodPost, "/caches/remove?addr=ghost:1"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown destination = %d, want 404", rec.Code)
	}
}

func TestUnknownRoute(t *testing.T) {
	f := newAdminFixture(t)
	if rec := f.do(t, http.MethodGet, "/children/recycle"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", rec.Code)
	}
}

// TestAddDefersUnreachable: the deferred-dial contract — an address that is
// down right now is still added (the session's redial loop connects later)
// and the response says so.
func TestAddDefersUnreachable(t *testing.T) {
	f := newAdminFixture(t)
	// A listener we open and immediately close: the port is valid syntax
	// but refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	rec := f.do(t, http.MethodPost, "/caches/add?addr="+url.QueryEscape(dead))
	if rec.Code != http.StatusOK {
		t.Fatalf("deferred add = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "redialing") {
		t.Errorf("deferred add body %q does not mention redialing", rec.Body.String())
	}
}

// TestRegisterPprof: the -pprof wiring must expose the standard profiling
// endpoints on the daemon mux — and only when registered.
func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	for _, target := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", target, rec.Code)
		}
	}

	// Without registration the daemon must not leak the endpoints.
	bare := http.NewServeMux()
	bare.HandleFunc("/caches/add", AddHandler(nil, "x"))
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	bare.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unregistered GET /debug/pprof/ = %d, want 404", rec.Code)
	}
}
