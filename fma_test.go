package pearl

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-add mnemonics go tool objdump prints
// for arm64, ppc64le, riscv64 and s390x (FMADDD, FNMSUBD, MADDBR, ...),
// the same pattern as the CI step "no fused multiply-add".
var fusedOp = regexp.MustCompile(`\t(F(N)?M(ADD|SUB)D?|M[AS]DBR)[ \t]`)

// TestNoFusedMultiplyAdd is the quick local form of the CI step that
// cross-builds every binary for four fusing architectures. Go may fuse
// x*y + z into one instruction that rounds once instead of twice, so a
// fused op in this module's code makes arm64 results differ from
// amd64's; every such site carries an explicit float64(...) that blocks
// the fusion. pearlsim links every simulator package (sim, traffic,
// noc, core, cmesh, power, stats, features, mlkit, controller,
// experiments), so one arm64 build covers the hot-path float code. The
// test is skipped when the toolchain cannot cross-compile.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-builds a binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "pearlsim")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/pearlsim")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot cross-compile for arm64: %v\n%s", err, out)
	}
	dump, err := exec.Command(goBin, "tool", "objdump", "-s", "^repro/", bin).Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v", err)
	}
	hits := map[string]int{}
	var sym string
	for sc := bufio.NewScanner(bytes.NewReader(dump)); sc.Scan(); {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			sym, _, _ = strings.Cut(rest, " ")
			continue
		}
		if fusedOp.MatchString(line) {
			hits[sym]++
		}
	}
	if sym == "" {
		t.Fatal("objdump listed no repro/ symbols; the scan would pass vacuously")
	}
	for s, n := range hits {
		t.Errorf("%d fused multiply-add op(s) in %s", n, s)
	}
}
