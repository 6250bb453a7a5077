package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Load model: closed loop. C clients in this process, one keep-alive
// connection each, each sending its next request when the previous reply
// has arrived and been validated. The load generator shares the cores with
// the program it measures.

func getJSON(ctx context.Context, hc *http.Client, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// poster sends JSON POSTs over one keep-alive connection, reusing its
// buffers. Not safe for concurrent use.
type poster struct {
	hc  *http.Client
	req bytes.Buffer
	rsp bytes.Buffer
}

func newPoster() *poster {
	return &poster{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute,
	}}}
}

func (p *poster) close() { p.hc.CloseIdleConnections() }

// post sends body as JSON and returns the status and the reply bytes
// (valid until the next post).
func (p *poster) post(url string, body any) (int, []byte, error) {
	p.req.Reset()
	if err := json.NewEncoder(&p.req).Encode(body); err != nil {
		return 0, nil, err
	}
	resp, err := p.hc.Post(url, "application/json", bytes.NewReader(p.req.Bytes()))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	p.rsp.Reset()
	if _, err := io.Copy(&p.rsp, resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, p.rsp.Bytes(), nil
}

// outcome is one request as its client saw it.
type outcome struct {
	ok   bool
	lat  time.Duration
	ids  []int64 // search hits (reused by the next send)
	sent time.Time
}

// client is one closed-loop caller of the deployment's front URL.
type client struct {
	in  *inputs
	v   *validator
	p   *poster
	url string
	st  stream // nil for a client that is handed its requests

	resp serve.SearchResponse
}

func newClient(in *inputs, v *validator, url string, st stream) *client {
	return &client{in: in, v: v, p: newPoster(), url: url, st: st}
}

// send issues r, validates the reply and keeps the model of acknowledged
// writes current. A non-200, a transport error, an undecodable reply or a
// validation failure makes the outcome not ok.
func (c *client) send(r request) outcome {
	var path string
	var body any
	switch r.Kind {
	case opSearch:
		path, body = "/search", serve.SearchRequest{Vector: r.Vec, Filter: c.in.filterExpr(r.Band)}
	case opUpsert, opOverwrite:
		path, body = "/upsert", serve.WriteRequest{ID: r.ID, Vector: r.Vec}
	case opDelete:
		path, body = "/delete", serve.WriteRequest{ID: r.ID}
	}
	c.v.sending(r)
	o := outcome{sent: time.Now()}
	status, raw, err := c.p.post(c.url+path, body)
	o.lat = time.Since(o.sent)
	if err != nil || status != http.StatusOK {
		return o
	}
	if r.Kind != opSearch {
		c.v.acked(r, time.Now())
		o.ok = true
		return o
	}
	c.resp.IDs, c.resp.Distances = c.resp.IDs[:0], c.resp.Distances[:0]
	if json.Unmarshal(raw, &c.resp) != nil {
		return o
	}
	o.ids = c.resp.IDs
	o.ok = c.v.check(r, o.sent, c.resp.IDs, c.resp.Distances) == vNone
	return o
}

// window is what one stretch of load measured. The At slices hold each ok
// reply's arrival, in seconds since the window opened, parallel to the
// latencies.
type window struct {
	Seconds   float64
	SearchMs  []float64 // ok search replies
	SearchAt  []float64
	WriteMs   []float64 // ok write acknowledgments
	WriteAt   []float64
	Attempted int
	Failed    int
}

func (w *window) ok() int { return len(w.SearchMs) + len(w.WriteMs) }

// windowSlices is how many equal stretches a measured window is cut into.
// The end-to-end rates and latencies are medians over the stretches, so one
// stall of the host (a hiccup of tens of milliseconds is 1 % of a window's
// requests) lands in one stretch and moves none of them.
const windowSlices = 4

// sliced returns the median over the window's stretches of: ok replies per
// second, the search p50 and p99, and the write p50 (0 without writes).
func (w *window) sliced() (qps, p50, p99, writeP50 float64) {
	width := w.Seconds / windowSlices
	slice := func(at float64) int { return min(int(at/width), windowSlices-1) }
	search := make([][]float64, windowSlices)
	write := make([][]float64, windowSlices)
	for i, at := range w.SearchAt {
		search[slice(at)] = append(search[slice(at)], w.SearchMs[i])
	}
	for i, at := range w.WriteAt {
		write[slice(at)] = append(write[slice(at)], w.WriteMs[i])
	}
	var rates, p50s, p99s, wp50s []float64
	for i := range search {
		rates = append(rates, float64(len(search[i])+len(write[i]))/width)
		if len(search[i]) > 0 {
			p50s = append(p50s, quantile(search[i], 0.5))
			p99s = append(p99s, quantile(search[i], 0.99))
		}
		if len(write[i]) > 0 {
			wp50s = append(wp50s, quantile(write[i], 0.5))
		}
	}
	if len(wp50s) > 0 {
		writeP50 = median(wp50s)
	}
	return median(rates), median(p50s), median(p99s), writeP50
}

// lasting is the stop rule of a fixed-length window.
func lasting(seconds float64) func(time.Duration) bool {
	return func(elapsed time.Duration) bool { return elapsed.Seconds() >= seconds }
}

// runWindow drives every client until stop (polled every 10 ms) says so,
// and merges what they saw. rec, when non-nil, gets one span per request.
func runWindow(clients []*client, stop func(elapsed time.Duration) bool, rec *spanLog) window {
	var done atomic.Bool
	parts := make([]window, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, w *window) {
			defer wg.Done()
			for !done.Load() {
				r := c.st.Next()
				o := c.send(r)
				if rec != nil {
					rec.add("client."+r.Kind.String(), -1, 0, o.sent, o.sent.Add(o.lat))
				}
				w.Attempted++
				at := o.sent.Add(o.lat).Sub(start).Seconds()
				switch {
				case !o.ok:
					w.Failed++
				case r.Kind == opSearch:
					w.SearchMs, w.SearchAt = append(w.SearchMs, o.lat.Seconds()*1e3), append(w.SearchAt, at)
				default:
					w.WriteMs, w.WriteAt = append(w.WriteMs, o.lat.Seconds()*1e3), append(w.WriteAt, at)
				}
			}
		}(c, &parts[i])
	}
	for !stop(time.Since(start)) {
		time.Sleep(10 * time.Millisecond)
	}
	done.Store(true)
	wg.Wait()
	out := window{Seconds: time.Since(start).Seconds()}
	for _, p := range parts {
		out.SearchMs, out.SearchAt = append(out.SearchMs, p.SearchMs...), append(out.SearchAt, p.SearchAt...)
		out.WriteMs, out.WriteAt = append(out.WriteMs, p.WriteMs...), append(out.WriteAt, p.WriteAt...)
		out.Attempted += p.Attempted
		out.Failed += p.Failed
	}
	return out
}

// warmUp runs load for at least sc.Warm and, on read-only workloads, until
// the drift compaction every fresh deployment fires has been published and
// Stats().Compactions has held still for sc.Settle. mixed_single compacts
// for as long as it is written to, so there one published epoch suffices.
func warmUp(in *inputs, d *deployment, clients []*client) (window, error) {
	sc := in.sc
	last, lastChange := uint64(0), time.Duration(0)
	timedOut := false
	w := runWindow(clients, func(elapsed time.Duration) bool {
		var total uint64
		busy := false
		for _, s := range d.Shards {
			st := s.Index.Stats()
			total += st.Compactions
			busy = busy || st.Compacting
		}
		if total != last || busy {
			last, lastChange = total, elapsed
		}
		if elapsed < sc.Warm {
			return false
		}
		if elapsed > sc.WarmCap {
			timedOut = true
			return true
		}
		if in.workload == wlMixedSingle {
			return total >= 1
		}
		return elapsed-lastChange >= sc.Settle
	}, nil)
	if timedOut {
		return w, fmt.Errorf("warm-up: compaction count not steady after %v (%d so far)", sc.WarmCap, last)
	}
	return w, nil
}
