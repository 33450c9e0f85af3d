package main

import (
	"testing"
	"time"
)

// TestServeConfig pins the shipped server to the assembly the benchmark
// measures (benchmark/stack.go's stackConfig, which this module cannot
// import): the paper's rules and all three cross-query layers on, with the
// serve flags flowing through.
func TestServeConfig(t *testing.T) {
	cfg := serveConfig(7*time.Millisecond, 3<<20, 5<<20, "/spill/here")
	if !cfg.EnableFusion || !cfg.ShareExec || !cfg.ShareScans {
		t.Errorf("serve must run fusion, shared execution and shared scans: %+v", cfg)
	}
	if cfg.AdmissionWindow != 7*time.Millisecond {
		t.Errorf("-window lost: AdmissionWindow = %v", cfg.AdmissionWindow)
	}
	if cfg.ResultCacheBytes != 3<<20 {
		t.Errorf("-rescache lost: ResultCacheBytes = %d", cfg.ResultCacheBytes)
	}
	if cfg.MemoryLimitBytes != 5<<20 || cfg.SpillDir != "/spill/here" {
		t.Errorf("-memlimit lost: MemoryLimitBytes = %d, SpillDir = %q", cfg.MemoryLimitBytes, cfg.SpillDir)
	}
}
