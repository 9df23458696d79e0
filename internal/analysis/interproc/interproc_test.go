package interproc

import (
	"os"
	"strings"
	"testing"

	"aic/internal/analysis"
)

// loadProg builds the engine over the multi-package fixture.
func loadProg(t *testing.T) *Program {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(cwd, "./testdata/src/prog/...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) < 2 {
		t.Fatalf("fixture loaded %d packages, want >= 2 (multi-package support)", len(pkgs))
	}
	return Build(pkgs[0].Fset, pkgs)
}

// fn finds a program function by its diagnostic name suffix.
func fn(t *testing.T, p *Program, suffix string) *FuncInfo {
	t.Helper()
	var hit *FuncInfo
	for _, fi := range p.Funcs {
		if strings.HasSuffix(FuncName(fi.Obj), suffix) {
			if hit != nil {
				t.Fatalf("ambiguous function suffix %q", suffix)
			}
			hit = fi
		}
	}
	if hit == nil {
		t.Fatalf("no function matching %q", suffix)
	}
	return hit
}

func TestEffectSummaries(t *testing.T) {
	p := loadProg(t)
	tests := []struct {
		fn      string
		want    Effect
		durable bool
	}{
		// Direct FS-shim effects.
		{"(*Disk).Put", EffFsync | EffDirSync | EffRename, true},
		// Through the Store interface, across packages.
		{"(*Svc).Commit", EffFsync | EffDirSync | EffRename, true},
		// I/O by contract: the Store call, and the FS shim calls behind it
		// in the other package.
		{"(*Svc).Commit", EffIO, true},
		{"svc.Spin", EffSpin, false},
		{"svc.SpinCaller", EffSpin, false},
	}
	for _, tc := range tests {
		fi := fn(t, p, tc.fn)
		if fi.Summary&tc.want != tc.want {
			t.Errorf("%s: summary %s missing %s", tc.fn, fi.Summary, tc.want)
		}
		if got := fi.Summary.Durable(); got != tc.durable {
			t.Errorf("%s: Durable() = %v, want %v (summary %s)", tc.fn, got, tc.durable, fi.Summary)
		}
	}
	pump := fn(t, p, "svc.Pump")
	if pump.Summary&EffChanRecv == 0 {
		t.Errorf("Pump: summary %s missing chan-recv", pump.Summary)
	}
	if pump.Summary&EffSpin != 0 {
		t.Errorf("Pump: loop with a receive classified as spin (summary %s)", pump.Summary)
	}
}

func TestInterfaceResolution(t *testing.T) {
	p := loadProg(t)
	commit := fn(t, p, "(*Svc).Commit")
	var resolved []string
	for _, call := range commit.Calls {
		for _, tgt := range call.Targets {
			resolved = append(resolved, FuncName(tgt))
		}
	}
	found := false
	for _, name := range resolved {
		if name == "store.(*Disk).Put" {
			found = true
		}
	}
	if !found {
		t.Errorf("Commit's st.Put call did not resolve to store.(*Disk).Put; targets: %v", resolved)
	}
}

func TestTransitiveLockAcquires(t *testing.T) {
	p := loadProg(t)
	nested := fn(t, p, "(*Svc).Nested")
	if _, ok := nested.Acquires["svc.gate"]; !ok {
		t.Errorf("Nested: missing direct acquire of svc.gate; has %v", lockIDs(nested))
	}
	w, ok := nested.Acquires["svc.Svc.mu"]
	if !ok {
		t.Fatalf("Nested: missing transitive acquire of svc.Svc.mu; has %v", lockIDs(nested))
	}
	if len(w.Via) != 1 || w.Via[0] != "svc.(*Svc).helper" {
		t.Errorf("Nested: svc.Svc.mu witness via = %v, want [svc.(*Svc).helper]", w.Via)
	}
}

func lockIDs(fi *FuncInfo) []string {
	var out []string
	for id := range fi.Acquires {
		out = append(out, id)
	}
	return out
}
