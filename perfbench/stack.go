package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"odlib/internal/catalog"
	"odlib/internal/core"
	"odlib/internal/discover"
	"odlib/internal/prover"
	"odlib/internal/router"
	"odlib/internal/server"
	"odlib/internal/store"
)

// Store settings of the durable stack: fsync on every group commit (the
// stated flush policy), and a snapshot cadence and segment size small enough
// that churn compacts several times per run.
const (
	flushPolicy    = "fsync per group commit"
	snapshotEvery  = 64
	segmentRecords = 32
)

// stack is the system under test: a router and an odserve-configured
// server.New handler on a loopback listener, reached through a keep-alive
// HTTP client.
type stack struct {
	rt      *router.Router
	pool    *prover.Pool
	handler *server.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	dataDir string
	opts    router.Options
}

// storeProbe accumulates the store's group-commit telemetry; installed only
// by the traced run.
type storeProbe struct {
	commits, records, fsyncs atomic.Uint64
	fsyncNs                  atomic.Int64
}

// hooks returns store telemetry that counts into p and then calls next's
// hooks, when next is non-nil.
func (p *storeProbe) hooks(next *store.Telemetry) *store.Telemetry {
	if next == nil {
		next = &store.Telemetry{}
	}
	return &store.Telemetry{
		CommitSeconds: func(s float64) {
			p.commits.Add(1)
			if next.CommitSeconds != nil {
				next.CommitSeconds(s)
			}
		},
		FsyncSeconds: func(s float64) {
			p.fsyncs.Add(1)
			p.fsyncNs.Add(int64(s * 1e9))
			if next.FsyncSeconds != nil {
				next.FsyncSeconds(s)
			}
		},
		BatchRecords: func(n float64) {
			p.records.Add(uint64(n))
			if next.BatchRecords != nil {
				next.BatchRecords(n)
			}
		},
	}
}

// openStack wires the stack the way cmd/odserve does: shared telemetry, one
// prover pool sized to the machine shared by every catalog and by discovery,
// prefix routing, and — with a data dir — durable shards. clients sizes the
// client's keep-alive pool.
func openStack(dataDir string, clients int, probe *storeProbe) (*stack, error) {
	nproc := runtime.NumCPU()
	tel := server.NewTelemetry()
	pool := prover.NewPool(nproc)
	storeTel := tel.StoreTelemetry()
	if probe != nil {
		storeTel = probe.hooks(storeTel)
	}
	opts := router.Options{
		DataDir: dataDir,
		Store: store.Options{
			Fsync:          true,
			SnapshotEvery:  snapshotEvery,
			SegmentRecords: segmentRecords,
			Telemetry:      storeTel,
		},
		Catalog: append([]catalog.Option{
			catalog.WithMemoCapacity(catalog.DefaultMemoCapacity),
			catalog.WithWorkers(nproc),
		}, tel.CatalogOptions(pool)...),
		ShardByPrefix: true,
		Telemetry:     tel.RouterTelemetry(),
	}
	rt, err := router.Open(opts)
	if err != nil {
		return nil, err
	}
	tel.ObserveRouter(rt, pool)
	h := server.New(rt,
		server.WithTelemetry(tel),
		server.WithDiscoverWorkers(nproc),
		server.WithDiscoverPool(pool))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = rt.Close()
		return nil, err
	}
	s := &stack{
		rt: rt, pool: pool, handler: h, dataDir: dataDir, opts: opts,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			IdleConnTimeout:     time.Minute,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener, waits for the serve loop to end and closes the
// router's shard stores; closing twice is harmless.
func (s *stack) close() error {
	var err error
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = s.hs.Shutdown(ctx)
		if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		s.hs = nil
		s.client.CloseIdleConnections()
	}
	if s.rt != nil {
		if cerr := s.rt.Close(); err == nil {
			err = cerr
		}
		s.rt = nil
	}
	return err
}

// errStatus reports a non-2xx reply.
var errStatus = errors.New("non-2xx status")

// do sends one request and reads the whole reply; a non-2xx status is an
// error carrying the body.
func (s *stack) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %w %d: %s", method, path, errStatus, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// proveReply is the part of a /prove response the benchmark checks.
type proveReply struct {
	Schema     string       `json:"schema"`
	Implied    bool         `json:"implied"`
	Generation uint64       `json:"generation"`
	Witness    *witnessJSON `json:"witness"`
}

type witnessJSON struct {
	Rows  [][]int64 `json:"rows"`
	Attrs []string  `json:"attrs"`
}

func (s *stack) prove(q question) (proveReply, error) {
	var rep proveReply
	body, err := s.do(http.MethodPost, "/prove", q.body)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(body, &rep)
	return rep, err
}

// mutationReply is the part of a POST/DELETE /ods response the model of
// acknowledged mutations needs.
type mutationReply struct {
	Schema     string `json:"schema"`
	Added      int    `json:"added"`
	Removed    int    `json:"removed"`
	Generation uint64 `json:"generation"`
	Seq        uint64 `json:"seq"`
}

func mutationBody(od core.OD) []byte {
	b, _ := json.Marshal(map[string][]string{"statements": {od.String()}})
	return b
}

func (s *stack) mutate(remove bool, body []byte) (mutationReply, error) {
	method := http.MethodPost
	if remove {
		method = http.MethodDelete
	}
	var rep mutationReply
	out, err := s.do(method, "/ods", body)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(out, &rep)
	return rep, err
}

// declareAll populates the stack in one /ods/batch request.
func (s *stack) declareAll(ods []core.OD) error {
	stmts := make([]string, len(ods))
	for i, od := range ods {
		stmts[i] = od.String()
	}
	body, _ := json.Marshal(map[string][]string{"declare": stmts})
	_, err := s.do(http.MethodPost, "/ods/batch", body)
	return err
}

// proveAll asks every question once through /prove/batch, which warms the
// memo and the negative closure.
func (s *stack) proveAll(qs []question) error {
	stmts := make([]string, len(qs))
	for i, q := range qs {
		stmts[i] = q.od.String()
	}
	body, _ := json.Marshal(map[string][]string{"statements": stmts})
	_, err := s.do(http.MethodPost, "/prove/batch", body)
	return err
}

// discoverReply is one parsed /discover NDJSON stream.
type discoverReply struct {
	ods   []string
	stats *discover.PipelineStats
}

func (s *stack) discover(body []byte) (discoverReply, error) {
	var rep discoverReply
	out, err := s.do(http.MethodPost, "/discover", body)
	if err != nil {
		return rep, err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var line struct {
			OD    string                  `json:"od"`
			Error string                  `json:"error"`
			Stats *discover.PipelineStats `json:"stats"`
		}
		if err := dec.Decode(&line); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return rep, err
		}
		switch {
		case line.Error != "":
			return rep, fmt.Errorf("discover: %s", line.Error)
		case line.OD != "":
			rep.ods = append(rep.ods, line.OD)
		case line.Stats != nil:
			rep.stats = line.Stats
		}
	}
	if rep.stats == nil {
		return rep, fmt.Errorf("discover: stream ended without a summary")
	}
	return rep, nil
}
