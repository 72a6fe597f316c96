package transform

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"rafda/internal/corpus"
	"rafda/internal/ir"
)

// The transformation fans its per-class work out across cores; these
// pins hold its output to the bytes the serial pipeline produced, at
// one and at four workers.  The JDK-like corpus spans many chunks, so
// under -race the fan-out itself is raced.
const (
	// jdkTransformSHA256 is the sha256 of ir.EncodeProgram over the
	// JDKLike() corpus (seed 1) transformed with Options{}: one proxy
	// pair per family, each proxy declaring only __guid and __endpoint.
	jdkTransformSHA256 = "b2691cf5754be998396fe96af0b7ade75336661f1b05dcffbc2c6016912896aa"
	// jdkGeneratedClasses is that output's class count.
	jdkGeneratedClasses = 42598
	// jdkCausesSHA256 digests Analyze's cause map over the same corpus
	// (see causesDigest).
	jdkCausesSHA256 = "73eb820d23f6434df04616023d753df81354142386cb753193c26c3c7cb2e908"
	// jdkVerdictsSHA256 digests that output's effect verdicts (see
	// verdictsDigest); jdkAnalysed and jdkReadOnly count the methods
	// digested and those read-only.  Constructors and static
	// initialisers always answer writer.
	jdkVerdictsSHA256 = "1b84afe13cb3fe57e165c4a8a04215479a6501df97e5892fd04df1f396e2b21c"
	jdkAnalysed       = 104591
	jdkReadOnly       = 46716
)

// causesDigest hashes every class's cause, in program order, as
// "name\treason\tvia\n"; transformable classes hash reason 0.
func causesDigest(prog *ir.Program, a *Analysis) string {
	h := sha256.New()
	for _, n := range prog.Names() {
		c := a.Cause(n)
		fmt.Fprintf(h, "%s\t%d\t%s\n", n, c.Reason, c.Via)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verdictsDigest hashes r.ReadOnly for every concrete method, in
// program and declaration order, as "class\x00key\t" then 'r' or 'w'
// and a newline.
func verdictsDigest(r *Result) (digest string, analysed, readOnly int) {
	h := sha256.New()
	for _, c := range r.Program.Classes() {
		for _, m := range c.Methods {
			if m.Abstract {
				continue
			}
			analysed++
			verdict := 'w'
			if r.ReadOnly(c.Name, m.Key()) {
				verdict = 'r'
				readOnly++
			}
			fmt.Fprintf(h, "%s\x00%s\t%c\n", c.Name, m.Key(), verdict)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), analysed, readOnly
}

func TestCorpusTransformDeterministic(t *testing.T) {
	prog := corpus.Generate(corpus.JDKLike())
	if got := causesDigest(prog, Analyze(prog)); got != jdkCausesSHA256 {
		t.Errorf("cause map digest = %s, want %s", got, jdkCausesSHA256)
	}
	// The deprecated Options.Protocols is ignored: the second run names
	// every transport and must give the same output.
	for _, run := range []struct {
		procs int
		opts  Options
	}{
		{1, Options{}},
		{4, Options{Protocols: []string{"inproc", "rrp", "soap", "json"}}},
	} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", run.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(run.procs))
			res, err := Transform(prog, run.opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Program.Len(); n != jdkGeneratedClasses {
				t.Errorf("output has %d classes, want %d", n, jdkGeneratedClasses)
			}
			h := sha256.New()
			if err := ir.EncodeProgram(h, res.Program); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != jdkTransformSHA256 {
				t.Errorf("encoded output sha256 = %s, want %s", got, jdkTransformSHA256)
			}
			if got := causesDigest(prog, res.Analysis); got != jdkCausesSHA256 {
				t.Errorf("Transform's analysis digest = %s, want %s", got, jdkCausesSHA256)
			}
			if got, analysed, readOnly := verdictsDigest(res); got != jdkVerdictsSHA256 ||
				analysed != jdkAnalysed || readOnly != jdkReadOnly {
				t.Errorf("effect verdicts: digest %s over %d methods, %d read-only; want %s, %d, %d",
					got, analysed, readOnly, jdkVerdictsSHA256, jdkAnalysed, jdkReadOnly)
			}
			var want []string
			for _, n := range prog.Names() {
				if res.Analysis.Transformable(n) {
					want = append(want, n)
				}
			}
			if fmt.Sprint(res.Transformed) != fmt.Sprint(want) {
				t.Errorf("Transformed is not the transformable classes in program order")
			}
		})
	}
}
