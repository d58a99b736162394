package obs

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("r", 600))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "profile")
	})
	mux.HandleFunc("/fail", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	return mux
}

const testRoutes = "/report,/healthz,/debug/pprof/,/fail,/panic"

func newTestMiddleware(logw io.Writer) (*Registry, http.Handler) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg).withClock(fakeClock(time.Millisecond))
	var logger *slog.Logger
	if logw != nil {
		logger = NewDeterministicLogger(logw, slog.LevelInfo)
	}
	return reg, m.Middleware(testMux(), logger, strings.Split(testRoutes, ",")...)
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestMiddlewareRecordsRouteMetrics(t *testing.T) {
	reg, h := newTestMiddleware(nil)
	get(t, h, "/report")
	get(t, h, "/report")
	get(t, h, "/healthz")
	get(t, h, "/fail")
	get(t, h, "/debug/pprof/heap")
	get(t, h, "/no/such/path")

	cases := []struct {
		labels []string
		want   float64
	}{
		{[]string{"/report", "GET", "200"}, 2},
		{[]string{"/healthz", "GET", "200"}, 1},
		{[]string{"/fail", "GET", "503"}, 1},
		{[]string{"/debug/pprof/", "GET", "200"}, 1},
		{[]string{RouteOther, "GET", "404"}, 1},
	}
	for _, c := range cases {
		if v, ok := reg.Value("certchain_http_requests_total", c.labels...); !ok || v != c.want {
			t.Errorf("requests_total%v = %v (ok=%v), want %v", c.labels, v, ok, c.want)
		}
	}
	if v, ok := reg.Value("certchain_http_request_seconds", "/report"); !ok || v != 2 {
		t.Errorf("latency histogram count for /report = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := reg.Value("certchain_http_inflight_requests"); !ok || v != 0 {
		t.Errorf("inflight after quiesce = %v (ok=%v), want 0", v, ok)
	}
	// Response-size histogram saw the two 600-byte report bodies: both land
	// in the 1024 bucket, none at or below the 256 bound.
	text := reg.Text()
	for _, line := range []string{
		`certchain_http_response_bytes_bucket{route="/report",le="256"} 0`,
		`certchain_http_response_bytes_bucket{route="/report",le="1024"} 2`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

func TestMiddlewareAccessLogDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		_, h := newTestMiddleware(&buf)
		get(t, h, "/report")
		get(t, h, "/fail")
		get(t, h, "/unknown")
		return buf.String()
	}
	first := run()
	want := "level=INFO msg=http route=/report method=GET code=200 bytes=600\n" +
		"level=INFO msg=http route=/fail method=GET code=503 bytes=5\n" +
		"level=INFO msg=http route=other method=GET code=404 bytes=19\n"
	if first != want {
		t.Errorf("access log:\n%s\nwant:\n%s", first, want)
	}
	if second := run(); second != first {
		t.Errorf("equal request sequences logged differently:\n%s\nvs\n%s", first, second)
	}
}

func TestMiddlewarePanicAccounted(t *testing.T) {
	var buf bytes.Buffer
	reg, h := newTestMiddleware(&buf)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("middleware swallowed the handler panic")
			}
		}()
		get(t, h, "/panic")
	}()
	if v, ok := reg.Value("certchain_http_requests_total", "/panic", "GET", "500"); !ok || v != 1 {
		t.Errorf("panicking request not counted as 500: v=%v ok=%v", v, ok)
	}
	if v, _ := reg.Value("certchain_http_inflight_requests"); v != 0 {
		t.Errorf("inflight leaked after panic: %v", v)
	}
	if !strings.Contains(buf.String(), "route=/panic method=GET code=500") {
		t.Errorf("panicking request missing from access log: %q", buf.String())
	}
}

// TestMiddlewareConcurrentScrapes drives traffic and /metrics scrapes
// concurrently; every scrape must pass ValidateExposition. Run under -race
// this also pins that the middleware and the renderer share the registry
// safely.
func TestMiddlewareConcurrentScrapes(t *testing.T) {
	reg, h := newTestMiddleware(nil)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/", h)

	const loops = 50
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/report", "/healthz", "/fail", "/nope"}
			for i := 0; i < loops; i++ {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[(g+i)%len(paths)], nil))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				errc <- fmt.Errorf("scrape %d: status %d", i, rec.Code)
				return
			}
			if err := ValidateExposition(rec.Body.Bytes()); err != nil {
				errc <- fmt.Errorf("scrape %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if v, _ := reg.Value("certchain_http_inflight_requests"); v != 0 {
		t.Errorf("inflight after concurrent run = %v, want 0", v)
	}
}

func TestParseRoutesMethodAndPrefix(t *testing.T) {
	rps := parseRoutes([]string{"GET /status", "/partial", "/debug/pprof/", "POST /assign", "/"})
	req := func(method, path string) *http.Request {
		return httptest.NewRequest(method, path, nil)
	}
	cases := []struct {
		method, path, want string
	}{
		{"GET", "/status", "GET /status"},
		{"POST", "/status", RouteOther},
		{"POST", "/assign", "POST /assign"},
		{"GET", "/partial", "/partial"},
		{"GET", "/debug/pprof/heap", "/debug/pprof/"},
		{"GET", "/", "/"},
		{"GET", "/elsewhere", RouteOther},
	}
	for _, c := range cases {
		if got := resolveRoute(rps, req(c.method, c.path)); got != c.want {
			t.Errorf("resolveRoute(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}
