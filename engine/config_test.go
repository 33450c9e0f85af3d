package engine

import (
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/scanshare"
)

func TestConfigNormalizeDefaults(t *testing.T) {
	c := Config{}.normalize()
	if c.Parallelism != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism = %d, want GOMAXPROCS %d", c.Parallelism, runtime.GOMAXPROCS(0))
	}
	if c.BatchSize != exec.DefaultBatchSize {
		t.Errorf("BatchSize = %d, want %d", c.BatchSize, exec.DefaultBatchSize)
	}
	if c.ScanCacheBytes != scanshare.DefaultCacheBytes {
		t.Errorf("ScanCacheBytes = %d, want %d", c.ScanCacheBytes, int64(scanshare.DefaultCacheBytes))
	}
	if c.MemoryLimitBytes != 0 {
		t.Errorf("MemoryLimitBytes = %d, want 0 (unlimited)", c.MemoryLimitBytes)
	}
	if c.SpillDir != os.TempDir() {
		t.Errorf("SpillDir = %q, want %q", c.SpillDir, os.TempDir())
	}
	if c.EnableFusion || c.EnableSpooling || c.ShareScans {
		t.Errorf("boolean flags must default false, got %+v", c)
	}
}

func TestConfigNormalizeNegativeClamps(t *testing.T) {
	c := Config{Parallelism: -3, BatchSize: -1, ScanCacheBytes: -5, MemoryLimitBytes: -1}.normalize()
	if c.Parallelism <= 0 || c.BatchSize <= 0 || c.ScanCacheBytes <= 0 {
		t.Errorf("negative values not clamped: %+v", c)
	}
	if c.MemoryLimitBytes != 0 {
		t.Errorf("negative MemoryLimitBytes = %d, want 0", c.MemoryLimitBytes)
	}
}

func TestConfigNormalizePreservesExplicit(t *testing.T) {
	in := Config{
		EnableFusion:     true,
		EnableSpooling:   true,
		Parallelism:      3,
		BatchSize:        7,
		ShareScans:       true,
		ScanCacheBytes:   1 << 20,
		MemoryLimitBytes: 4 << 20,
		SpillDir:         "/tmp/spill-here",
		AdmissionWindow:  5 * time.Millisecond,
		MaxFusedQueries:  3,
	}
	if got := in.normalize(); got != in {
		t.Errorf("normalize changed explicit config:\n got %+v\nwant %+v", got, in)
	}
}

func TestConfigNormalizeIdempotent(t *testing.T) {
	once := Config{}.normalize()
	if twice := once.normalize(); twice != once {
		t.Errorf("normalize not idempotent:\n once %+v\ntwice %+v", once, twice)
	}
}

// TestOpenUsesNormalizedConfig checks that Open snapshots the normalized
// config so later queries never see the zero values.
func TestOpenUsesNormalizedConfig(t *testing.T) {
	cat := NewCatalog()
	eng := Open(cat, Config{})
	if eng.config.BatchSize != exec.DefaultBatchSize {
		t.Errorf("Open kept BatchSize %d, want normalized %d", eng.config.BatchSize, exec.DefaultBatchSize)
	}
	if eng.mempool == nil {
		t.Fatal("Open did not create a memory pool")
	}
	if eng.mempool.Limit() != 0 {
		t.Errorf("default pool limit = %d, want 0 (unlimited)", eng.mempool.Limit())
	}
	if eng.mempool.SpillDir() != os.TempDir() {
		t.Errorf("pool spill dir = %q, want %q", eng.mempool.SpillDir(), os.TempDir())
	}
}

// TestConfigExportedFields pins Config's public surface: every exported
// field is an option callers can set and tests and benchmarks must cover,
// so growing the list (a reference twin's switch, say — those are the
// unexported fields) has to be a decision made here.
func TestConfigExportedFields(t *testing.T) {
	want := []string{
		"EnableFusion", "EnableSpooling", "Parallelism", "BatchSize",
		"ShareScans", "ScanCacheBytes", "MemoryLimitBytes", "SpillDir",
		"ShareExec", "AdmissionWindow", "MaxFusedQueries", "ResultCacheBytes",
	}
	var got []string
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Config exports %v, want %v", got, want)
	}
}
