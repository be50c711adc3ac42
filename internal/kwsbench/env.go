package kwsbench

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"time"

	"kwsdbg/internal/core"
	"kwsdbg/internal/dblife"
	"kwsdbg/internal/engine"
	"kwsdbg/internal/lattice"
	"kwsdbg/internal/probecache"
	"kwsdbg/internal/server"
)

// maxJoins selects the level-5 lattice (22,749 nodes with 3 keyword slots).
const (
	maxJoins     = 4
	keywordSlots = 3
)

// dataSeed generates the dataset of every run, kwsdbgd's default. The
// benchmark's own seed drives only the request sequence: the data seed
// decides which tables the Q1-Q10 keywords bind to, which moved the search
// workload's SQL work by a fifth from one seed to the next.
const dataSeed = 1

// env is one freshly built system served over a loopback HTTP listener.
type env struct {
	eng *engine.Engine
	sys *core.System
	ts  *httptest.Server
}

// newEnv builds the dataset, its index, the lattice and the System, and
// serves them through server.New the way kwsdbgd does with its default
// flags and -maxjoins 4: default verdict and plan caches, one probe worker,
// no admission limit, the default flight ring, and a text log handler
// writing to io.Discard, so log formatting is paid but terminal I/O is not.
func newEnv(scale float64) (*env, error) {
	eng, err := dblife.Generate(dblife.Config{Seed: dataSeed, Scale: scale})
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	eng.Index()
	sys, err := core.Build(eng, lattice.Options{MaxJoins: maxJoins, KeywordSlots: keywordSlots})
	if err != nil {
		return nil, fmt.Errorf("build system: %w", err)
	}
	sys.SetProbeCache(probecache.New(probecache.Config{MaxEntries: probecache.DefaultMaxEntries}))
	eng.SetRetryPolicy(engine.RetryPolicy{MaxAttempts: engine.DefaultRetry.MaxAttempts})
	srv := server.New(sys)
	srv.Workers = 1
	srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return &env{eng: eng, sys: sys, ts: httptest.NewServer(srv)}, nil
}

// close stops the server and the System's database/sql handle. The engine
// stays reachable from sqldriver's process-wide DSN registry, which nothing
// outside the program can clear, so every environment built stays in the
// heap until the process exits.
func (e *env) close() {
	e.ts.Close()
	e.sys.DB().Close()
}

// buildEnv builds a fresh environment and returns it with its build time.
func buildEnv(scale float64) (*env, time.Duration, error) {
	start := time.Now()
	e, err := newEnv(scale)
	return e, time.Since(start), err
}

// newClient returns a client that keeps one connection alive to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}
