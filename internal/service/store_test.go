package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cppc/internal/cellstore"
	"cppc/internal/service"
)

// TestHealthzReadiness pins the readiness contract fleet membership
// checks rely on: 200 while serving, 503 once draining.
func TestHealthzReadiness(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(service.NewServer(svc).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving = %d, want 200", resp.StatusCode)
	}

	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestDiskWarmRestart is the restart acceptance test: a daemon restarted
// over the same data dir serves a previously computed cell as a cache
// hit, without re-executing it.
func TestDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	newSvc := func() *service.Service {
		disk, err := cellstore.NewDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return service.New(service.Config{
			Workers: 2,
			Store:   cellstore.NewTiered(cellstore.NewMemory(64), disk),
		})
	}
	spec := service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "cppc",
		Warmup: tinyWarmup, Measure: tinyMeasure}

	s1 := newSvc()
	job := submitSpec(t, s1, spec)
	if job.CacheHit {
		t.Fatalf("fresh cell claims a cache hit")
	}
	done := waitJob(t, s1, job.ID, jobDone, 30e9)
	_, want, err := s1.JobResult(done.ID)
	if err != nil || want == nil {
		t.Fatalf("first run result: %+v, %v", want, err)
	}
	if got := s1.Metrics().CellsExecuted; got != 1 {
		t.Fatalf("first process executed %d cells, want 1", got)
	}
	shutdown(t, s1)

	// Same data dir, fresh process: the cell must come off disk.
	s2 := newSvc()
	defer shutdown(t, s2)
	again := submitSpec(t, s2, spec)
	if !again.CacheHit || again.State != service.StateDone {
		t.Fatalf("restarted daemon re-ran the cell: %+v", again)
	}
	if got := s2.Metrics().CellsExecuted; got != 0 {
		t.Fatalf("restarted daemon executed %d cells, want 0", got)
	}
	_, got, err := s2.JobResult(again.ID)
	if err != nil || got == nil {
		t.Fatalf("restart result: %+v, %v", got, err)
	}
	if got.Artifacts["summary"] != want.Artifacts["summary"] {
		t.Fatalf("restart artifact diverges:\n%q\nvs\n%q",
			got.Artifacts["summary"], want.Artifacts["summary"])
	}
	if len(s2.Metrics().StoreTiers) != 2 {
		t.Fatalf("store tiers not surfaced in metrics: %+v", s2.Metrics().StoreTiers)
	}
}

// TestCorruptDiskEntryReexecutesOnce: a cell whose disk entry no longer
// decodes is executed once more, and the fresh result replaces the entry,
// so later requests and later processes over the same directory hit.
func TestCorruptDiskEntryReexecutesOnce(t *testing.T) {
	dir := t.TempDir()
	newSvc := func() *service.Service {
		disk, err := cellstore.NewDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return service.New(service.Config{
			Workers: 1,
			Store:   cellstore.NewTiered(cellstore.NewMemory(64), disk),
		})
	}
	spec := service.JobSpec{Kind: "simulate", Bench: "gzip", Scheme: "secded",
		Warmup: tinyWarmup, Measure: tinyMeasure}

	s1 := newSvc()
	waitJob(t, s1, submitSpec(t, s1, spec).ID, jobDone, 30e9)
	shutdown(t, s1)
	entries, err := filepath.Glob(filepath.Join(dir, "[0-9a-f]*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("disk entries after one cell: %v, %v", entries, err)
	}
	if err := os.Truncate(entries[0], 3); err != nil {
		t.Fatal(err)
	}

	s2 := newSvc()
	job := submitSpec(t, s2, spec)
	if job.CacheHit {
		t.Fatalf("corrupt entry served as a cache hit")
	}
	waitJob(t, s2, job.ID, jobDone, 30e9)
	if again := submitSpec(t, s2, spec); !again.CacheHit {
		t.Fatalf("second request after healing missed: state %s", again.State)
	}
	if got := s2.Metrics().CellsExecuted; got != 1 {
		t.Fatalf("corrupt entry re-executed %d times, want 1", got)
	}
	shutdown(t, s2)

	s3 := newSvc()
	defer shutdown(t, s3)
	if again := submitSpec(t, s3, spec); !again.CacheHit || again.State != service.StateDone {
		t.Fatalf("restart over the healed entry re-ran the cell: state %s, cache hit %v", again.State, again.CacheHit)
	}
	if got := s3.Metrics().CellsExecuted; got != 0 {
		t.Fatalf("restart executed %d cells, want 0", got)
	}
}
