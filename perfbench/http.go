package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"datastall/internal/server"
)

// service is one in-process job server on a loopback port.
type service struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startService builds a server.Server and serves its Handler (wrapped by
// wrap, when set) on 127.0.0.1.
func startService(cfg server.Config, wrap func(http.Handler) http.Handler) (*service, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// close stops accepting requests, cancels what still runs and waits for
// the serving goroutine and the job workers to end.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.srv.Close()
}

// newClient is an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns,
	}}
}

// submit POSTs a submission body to /v1/jobs and returns the job ID.
func submit(ctx context.Context, c *http.Client, base string, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", &refusal{resp.StatusCode, firstLine(rb)}
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rb, &acc); err != nil || acc.ID == "" {
		return "", fmt.Errorf("submit: malformed accept body %q", firstLine(rb))
	}
	return acc.ID, nil
}

// refusal is a non-2xx answer from the service.
type refusal struct {
	code int
	msg  string
}

func (e *refusal) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// waitDone follows a job's /events stream to its job_done marker and
// returns the job's terminal status.
func waitDone(ctx context.Context, c *http.Client, base, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rb, _ := io.ReadAll(resp.Body)
		return "", &refusal{resp.StatusCode, firstLine(rb)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type   string `json:"type"`
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events %s: %w", id, err)
		}
		if ev.Type == "job_done" {
			if ev.Status == "failed" {
				return ev.Status, fmt.Errorf("job %s failed: %s", id, ev.Error)
			}
			return ev.Status, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events %s: stream ended without job_done", id)
}

// get fetches url and returns its body; any status but 200 is an error.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	return do(ctx, c, http.MethodGet, url, http.StatusOK)
}

func do(ctx context.Context, c *http.Client, method, url string, want ...int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	for _, code := range want {
		if resp.StatusCode == code {
			return rb, nil
		}
	}
	return rb, &refusal{resp.StatusCode, firstLine(rb)}
}

// scrape reads a server's /metrics into a map from series name to value;
// labelled series (histogram buckets) are skipped.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	body, err := get(ctx, c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// counters is the difference of two /metrics scrapes.
type counters map[string]float64

func delta(before, after map[string]float64) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// meanMs is a histogram's mean in ms from its _sum and _count deltas.
func (c counters) meanMs(hist string) (float64, int) {
	n := c[hist+"_count"]
	return ratio(c[hist+"_sum"], n) * 1e3, int(n)
}
