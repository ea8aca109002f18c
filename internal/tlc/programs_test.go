package tlc

// File-driven tests: every program in testdata/ must compile, run to
// its expected result under every optimization configuration, and pass
// the elision-soundness oracle.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stm"
)

var programResults = map[string]uint64{
	"bank.tl":     1600, // money conserved
	"sieve.tl":    46,   // primes below 200
	"worklist.tl": 1275, // sum 1..50
}

func loadProgram(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func TestPrograms(t *testing.T) {
	cfgs := []stm.OptConfig{
		stm.Baseline(),
		stm.RuntimeAll(),
		stm.Compiler(),
	}
	for name, want := range programResults {
		src := loadProgram(t, name)
		c, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cfg := range cfgs {
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				rt := stm.New(c.DefaultMemConfig(), cfg)
				in := NewInterp(c, rt)
				got, err := in.Call(rt.Thread(0), "main")
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("main() = %d, want %d", got, want)
				}
				rt.Validate()
			})
		}
	}
}

// TestProgramsSoundness runs every program under the dynamic
// elision-verification oracle.
func TestProgramsSoundness(t *testing.T) {
	for name, want := range programResults {
		t.Run(name, func(t *testing.T) {
			c, err := Compile(loadProgram(t, name))
			if err != nil {
				t.Fatal(err)
			}
			cfg := stm.Compiler()
			cfg.Counting = true
			cfg.VerifyElision = true
			rt := stm.New(c.DefaultMemConfig(), cfg)
			in := NewInterp(c, rt)
			got, err := in.Call(rt.Thread(0), "main")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("main() = %d, want %d", got, want)
			}
		})
	}
}

// TestProgramsElideSomething: the captured-memory patterns in the
// programs must actually produce static elisions.
func TestProgramsElideSomething(t *testing.T) {
	for _, name := range []string{"bank.tl", "worklist.tl"} {
		c, err := Compile(loadProgram(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if c.Analysis.Fresh == 0 {
			t.Errorf("%s: analysis proved nothing captured:\n%s", name, c.Report())
		}
	}
}

// TestProgramsSkipSharedExtension: global accesses are classified
// definitely-shared, so the extension bypasses their runtime checks.
func TestProgramsSkipSharedExtension(t *testing.T) {
	c, err := Compile(loadProgram(t, "bank.tl"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Analysis.Shared == 0 {
		t.Fatalf("no definitely-shared sites:\n%s", c.Report())
	}
	cfg := stm.RuntimeAll()
	cfg.SkipSharedChecks = true
	rt := stm.New(c.DefaultMemConfig(), cfg)
	in := NewInterp(c, rt)
	got, err := in.Call(rt.Thread(0), "main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1600 {
		t.Errorf("main() = %d, want 1600", got)
	}
	if s := rt.Stats(); s.ReadSkipShared+s.WriteSkipShared == 0 {
		t.Error("extension skipped no checks")
	}
}
