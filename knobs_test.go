package refrecon_test

// The knob table: every knob — an exported field of recon.Config,
// serve.Config or collective.Config, or a flag defined in a cmd/ main —
// has exactly one row saying what it is for. The test lists the knobs
// itself (reflection over the three structs, a go/parser scan of
// cmd/*/main.go), so a knob added without a row, or a row left behind by
// a deleted knob, fails it.

import (
	"bufio"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"refrecon/internal/collective"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/obs"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/serve"
)

// knobRow is one row of the knob table. It is of exactly one class:
//
//	(a) changes shows the output or stat the knob changes, by running a
//	    tiny corpus at two values;
//	(b) smoke names what exercises an operational setting (address, path,
//	    name, concurrency): a Go test whose body names the knob, or a
//	    scripts/ci.sh stage ("ci.sh: <stage>") that passes the flag;
//	(c) neither, and refuses lists the combinations it cannot apply to.
//
// refuses may accompany (a) and (b) too: each command line in it must
// exit 2 with a message naming the flag.
type knobRow struct {
	knob    string // "recon.Config.Mode" or "reconcile -mode"
	changes func(t *testing.T, r *knobRig)
	smoke   string
	refuses [][]string
}

// pimA is the tiny corpus every cmd row runs on (written by the rig).
const pimA = "a.json"

// catalogFile is a one-reference catalog dataset, and seededDir a data
// dir already seeded with pimA (both written by the rig).
const (
	catalogFile = "catalog.json"
	seededDir   = "seeded"
)

func knobTable() []knobRow {
	// stat, served, resolved: an in-process run at DefaultConfig (or the
	// service's defaults) and at the changed setting.
	stat := func(what func(recon.Stats) any, set func(*recon.Config)) func(*testing.T, *knobRig) {
		return func(t *testing.T, r *knobRig) { differ(t, what(r.reconcile(t, nil)), what(r.reconcile(t, set))) }
	}
	served := func(what func(*serve.Service) any, store func(*knobRig) *reference.Store, set func(*serve.Config)) func(*testing.T, *knobRig) {
		return func(t *testing.T, r *knobRig) {
			differ(t, what(r.service(t, store(r), nil)), what(r.service(t, store(r), set)))
		}
	}
	resolved := func(cc collective.Config) func(*testing.T, *knobRig) {
		return func(t *testing.T, r *knobRig) { differ(t, r.collective(t, collective.Config{}), r.collective(t, cc)) }
	}
	// output compares the first output line containing prefix ("" = all
	// the output) of a command run with two argument lists; listening
	// does the same for reconserve's start-up log and GET / manifest.
	output := func(prefix string, a, b []string) func(*testing.T, *knobRig) {
		return func(t *testing.T, r *knobRig) { differ(t, r.line(t, prefix, a), r.line(t, prefix, b)) }
	}
	listening := func(prefix string, a, b []string) func(*testing.T, *knobRig) {
		return func(t *testing.T, r *knobRig) { differ(t, r.serveLine(t, prefix, a), r.serveLine(t, prefix, b)) }
	}
	entities := func(s *serve.Service) any { return len(s.View().Snapshot.Entities()) }
	manifest := func(s *serve.Service) any {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		return rec.Body.String()
	}
	tiny := func(r *knobRig) *reference.Store { return r.store }
	empty := func(*knobRig) *reference.Store { return reference.NewStore() }
	reconcile := func(args ...string) []string { return append([]string{"reconcile", "-in", pimA}, args...) }
	reconserve := func(args ...string) []string { return append([]string{"reconserve"}, args...) }
	pimgen := func(args ...string) []string { return append([]string{"pimgen"}, args...) }
	benchtables := func(args ...string) []string {
		return append([]string{"benchtables", "-scale", "0.02", "-table", "1"}, args...)
	}
	loadgen := func(args ...string) []string {
		return append([]string{"loadgen", "-refs", "200", "-queries", "40"}, args...)
	}
	refused := func(argvs ...[]string) [][]string { return argvs }

	return []knobRow{
		{knob: "recon.Config.Mode", changes: stat(func(s recon.Stats) any { return s.Engine.Folds },
			func(c *recon.Config) { c.Mode = recon.ModeTraditional })},
		{knob: "recon.Config.Evidence", changes: stat(func(s recon.Stats) any { return s.GraphEdges },
			func(c *recon.Config) { c.Evidence = recon.EvidenceAttrWise })},
		{knob: "recon.Config.Constraints", changes: stat(func(s recon.Stats) any { return s.NonMergeNodes },
			func(c *recon.Config) { c.Constraints = false })},
		{knob: "recon.Config.BucketCap", changes: stat(func(s recon.Stats) any { return s.CandidatePairs },
			func(c *recon.Config) { c.BucketCap = 2 })},
		{knob: "recon.Config.Workers", smoke: "TestWorkerCountDeterminismSession"},
		{knob: "recon.Config.Shards", changes: stat(func(s recon.Stats) any { return s.Shard.Components },
			func(c *recon.Config) { c.Shards = 2 })},
		{knob: "recon.Config.Audit", changes: stat(func(s recon.Stats) any { return s.AuditChecks },
			func(c *recon.Config) { c.Audit = true })},
		{knob: "recon.Config.Obs", changes: func(t *testing.T, r *knobRig) {
			o := &obs.Observer{Counters: obs.NewCounters()}
			r.reconcile(t, func(c *recon.Config) { c.Obs = o })
			differ(t, int64(0), o.Counters.Snapshot().Rounds) // rounds counted without an observer: none
		}},

		{knob: "serve.Config.Schema", changes: served(manifest, empty, func(c *serve.Config) { c.Schema = schema.Catalog() })},
		{knob: "serve.Config.Recon", changes: served(entities, tiny,
			func(c *serve.Config) { c.Recon.Evidence = recon.EvidenceAttrWise })},
		{knob: "serve.Config.Name", changes: served(manifest, empty, func(c *serve.Config) { c.Name = "other" })},
		{knob: "serve.Config.DataDir", changes: func(t *testing.T, r *knobRig) {
			durable := func(dir string) bool {
				return r.service(t, empty(r), func(c *serve.Config) { c.DataDir = dir }).Metrics().Durability != nil
			}
			differ(t, durable(""), durable(t.TempDir())) // /metrics gains its durability block
		}},
		{knob: "serve.Config.CheckpointEvery", changes: func(t *testing.T, r *knobRig) {
			checkpoints := func(every int) int64 {
				svc := r.service(t, r.store, func(c *serve.Config) { c.DataDir, c.CheckpointEvery = t.TempDir(), every })
				return svc.Metrics().Durability.Checkpoints
			}
			differ(t, checkpoints(0), checkpoints(1))
		}},
		{knob: "serve.Config.Collective", changes: served(manifest, empty,
			func(c *serve.Config) { c.Collective.MaxNodes = 100 })},

		{knob: "collective.Config.MaxHops", changes: resolved(collective.Config{MaxHops: 1})},
		{knob: "collective.Config.MaxNodes", changes: resolved(collective.Config{MaxNodes: 2})},
		{knob: "collective.Config.Budget", changes: resolved(collective.Config{Budget: time.Nanosecond})},
		{knob: "collective.Config.MaxSteps", changes: resolved(collective.Config{MaxSteps: 1})},
		{knob: "collective.Config.Obs", changes: resolved(collective.Config{Obs: &obs.Observer{Counters: obs.NewCounters()}})},

		{knob: "reconcile -in", smoke: "ci.sh: invariant audit", refuses: refused([]string{"reconcile", "-in", catalogFile})},
		{knob: "reconcile -mode", changes: output("engine:", reconcile(), reconcile("-mode", "traditional")),
			refuses: refused(reconcile("-mode", "bogus"))},
		{knob: "reconcile -evidence", changes: output("graph:", reconcile(), reconcile("-evidence", "attr")),
			refuses: refused(reconcile("-evidence", "bogus"))},
		{knob: "reconcile -constraints", changes: output("closure:", reconcile(), reconcile("-constraints=false"))},
		{knob: "reconcile -workers", smoke: "ci.sh: knob smoke", refuses: refused(reconcile("-workers", "-1"))},
		{knob: "reconcile -shards", changes: output("shards:", reconcile(), reconcile("-shards", "2")),
			refuses: refused(reconcile("-shards", "-1"))},
		{knob: "reconcile -bucketcap", changes: output("graph:", reconcile(), reconcile("-bucketcap", "2")),
			refuses: refused(reconcile("-bucketcap", "-5"))},
		{knob: "reconcile -audit", changes: output("audit:", reconcile(), reconcile("-audit"))},
		{knob: "reconcile -dump", changes: output("partitions written", reconcile(), reconcile("-dump", "dump.json"))},
		{knob: "reconcile -explain", changes: output("references 1 and 2", reconcile(), reconcile("-explain", "1,2")),
			refuses: refused(reconcile("-explain", "12"), reconcile("-explain", "1,2", "-shards", "2"))},
		{knob: "reconcile -dot", changes: output("dependency graph written", reconcile(), reconcile("-dot", "g.dot")),
			refuses: refused(reconcile("-dot", "g.dot", "-shards", "0"))},
		{knob: "reconcile -trace", smoke: "ci.sh: trace smoke"},
		{knob: "reconcile -progress", smoke: "ci.sh: trace smoke"},

		{knob: "reconserve -addr", smoke: "ci.sh: serve smoke"},
		{knob: "reconserve -in", smoke: "ci.sh: durability smoke",
			refuses: refused(reconserve("-in", pimA, "-data-dir", seededDir))},
		{knob: "reconserve -name", changes: listening(`"name"`, nil, []string{"-name", "other"})},
		{knob: "reconserve -schema", changes: listening(`"defaultTypes"`, nil, []string{"-schema", "catalog"}),
			refuses: refused(reconserve("-schema", "bogus"))},
		{knob: "reconserve -evidence", changes: listening("initial snapshot",
			[]string{"-in", pimA}, []string{"-in", pimA, "-evidence", "attr"}),
			refuses: refused(reconserve("-evidence", "bogus"))},
		{knob: "reconserve -constraints", changes: listening("initial snapshot",
			[]string{"-in", pimA}, []string{"-in", pimA, "-constraints=false"})},
		{knob: "reconserve -audit", smoke: "ci.sh: serve smoke"},
		{knob: "reconserve -data-dir", smoke: "ci.sh: durability smoke"},
		{knob: "reconserve -checkpoint-every", refuses: refused(reconserve("-checkpoint-every", "3"))},
		{knob: "reconserve -collective-max-nodes", changes: listening(`"maxNodes"`, nil, []string{"-collective-max-nodes", "100"}),
			refuses: refused(reconserve("-collective-max-nodes", "0"))},
		{knob: "reconserve -collective-max-hops", changes: listening(`"maxHops"`, nil, []string{"-collective-max-hops", "1"}),
			refuses: refused(reconserve("-collective-max-hops", "0"))},
		{knob: "reconserve -collective-budget-ms", changes: listening(`"budgetMs"`, nil, []string{"-collective-budget-ms", "50"}),
			refuses: refused(reconserve("-collective-budget-ms", "0"))},

		{knob: "pimgen -dataset", changes: output("", pimgen("-scale", "0.02"), pimgen("-scale", "0.02", "-dataset", "B")),
			refuses: refused(pimgen("-dataset", "Z"), pimgen("-refs", "100", "-dataset", "B"))},
		{knob: "pimgen -scale", changes: output("", pimgen("-scale", "0.02"), pimgen("-scale", "0.03")),
			refuses: refused(pimgen("-refs", "100", "-scale", "3"))},
		{knob: "pimgen -refs", changes: output("", pimgen("-refs", "300"), pimgen("-refs", "400")),
			refuses: refused(pimgen("-refs", "0"))},
		{knob: "pimgen -dup", changes: output("", pimgen("-refs", "300"), pimgen("-refs", "300", "-dup", "2")),
			refuses: refused(pimgen("-dup", "2"))},
		{knob: "pimgen -assoc", changes: output("", pimgen("-refs", "300"), pimgen("-refs", "300", "-assoc", "0.4")),
			refuses: refused(pimgen("-assoc", "0.4"))},
		{knob: "pimgen -seed", changes: output("", pimgen("-refs", "300"), pimgen("-refs", "300", "-seed", "2")),
			refuses: refused(pimgen("-seed", "2"))},
		{knob: "pimgen -o", smoke: "ci.sh: invariant audit"},

		{knob: "benchtables -scale", changes: output("Cora", benchtables(), benchtables("-scale", "0.03")),
			refuses: refused(benchtables("-scale", "0"))},
		{knob: "benchtables -table", changes: output("Table", benchtables(), benchtables("-table", "6")),
			refuses: refused(benchtables("-table", "9"))},
		{knob: "benchtables -ablations", changes: output("", benchtables(), benchtables("-ablations"))},

		{knob: "loadgen -target", smoke: "ci.sh: loadgen smoke"},
		{knob: "loadgen -dataset", changes: output(`"ingestedRefs"`, loadgen(), loadgen("-dataset", "catalog")),
			refuses: refused(loadgen("-dataset", "bogus"))},
		{knob: "loadgen -refs", changes: output(`"ingestedRefs"`, loadgen(), loadgen("-refs", "100"))},
		{knob: "loadgen -queries", changes: output(`"queries"`, loadgen(), loadgen("-queries", "30"))},
		{knob: "loadgen -seed", changes: output(`"count"`, loadgen(), loadgen("-seed", "2"))},
		{knob: "loadgen -clients", smoke: "ci.sh: loadgen smoke", refuses: refused(loadgen("-rate", "50", "-clients", "4"))},
		{knob: "loadgen -rate", changes: output(`"mode"`, loadgen(), loadgen("-rate", "400")),
			refuses: refused(loadgen("-rate", "-1"))},
		{knob: "loadgen -batch", changes: output(`"ingestBatches"`, loadgen(), loadgen("-batch", "50"))},
		{knob: "loadgen -collective", changes: output(`"count"`, loadgen(), loadgen("-collective", "0.6"))},
		{knob: "loadgen -o", smoke: "ci.sh: loadgen smoke"},
	}
}

func TestKnobTable(t *testing.T) {
	rows := knobTable()
	byKnob := make(map[string]knobRow, len(rows))
	for _, row := range rows {
		if _, dup := byKnob[row.knob]; dup {
			t.Errorf("knob %s has two rows", row.knob)
		}
		byKnob[row.knob] = row
		switch {
		case row.changes != nil && row.smoke != "":
			t.Errorf("knob %s: a row shows what the knob changes or names its smoke, not both", row.knob)
		case row.changes == nil && row.smoke == "" && len(row.refuses) == 0:
			t.Errorf("knob %s: the row is empty", row.knob)
		}
	}
	knobs := listKnobs(t)
	for _, k := range knobs {
		if _, ok := byKnob[k]; !ok {
			t.Errorf("knob %s has no row: show what it changes, name its smoke, or refuse what it cannot apply to", k)
		}
		delete(byKnob, k)
	}
	for k := range byKnob {
		t.Errorf("row %s names no knob", k)
	}
	if t.Failed() {
		return
	}
	t.Logf("%d knobs, %d rows", len(knobs), len(rows))

	rig := newKnobRig(t)
	for _, row := range rows {
		t.Run(row.knob, func(t *testing.T) {
			switch {
			case row.changes != nil:
				row.changes(t, rig)
			case row.smoke != "":
				checkSmoke(t, row.knob, row.smoke)
			}
			for _, argv := range row.refuses {
				rig.mustRefuse(t, row.knob, argv)
			}
		})
	}
}

// listKnobs returns every knob: the exported fields of the three Config
// structs and every flag a cmd/ main defines.
func listKnobs(t *testing.T) []string {
	var knobs []string
	for _, typ := range []reflect.Type{
		reflect.TypeOf(recon.Config{}), reflect.TypeOf(serve.Config{}), reflect.TypeOf(collective.Config{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				knobs = append(knobs, typ.String()+"."+f.Name)
			}
		}
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd mains found: %v", err)
	}
	fset := token.NewFileSet()
	for _, path := range mains {
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			var arg int
			switch sel.Sel.Name {
			case "String", "Int", "Int64", "Uint", "Uint64", "Bool", "Float64", "Duration", "Func", "BoolFunc":
				arg = 0 // flag.Int(name, value, usage)
			case "StringVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "BoolVar", "Float64Var", "DurationVar", "TextVar", "Var":
				arg = 1 // flag.IntVar(&v, name, value, usage)
			default:
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok {
				t.Fatalf("%s: flag.%s: the flag name must be a string literal", fset.Position(call.Pos()), sel.Sel.Name)
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			knobs = append(knobs, cmd+" -"+name)
			return true
		})
	}
	sort.Strings(knobs)
	return knobs
}

// checkSmoke checks that a (b) row's smoke exists and exercises the knob:
// a Go test whose body names the field, or a ci.sh stage with a command
// line that runs the flag's command with the flag.
func checkSmoke(t *testing.T, knob, smoke string) {
	name := knob[strings.LastIndexAny(knob, ". ")+1:]
	if stage, ok := strings.CutPrefix(smoke, "ci.sh: "); ok {
		src, err := os.ReadFile("scripts/ci.sh")
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(src), "\\\n", " ")
		start := strings.Index(text, `echo "== `+stage)
		if start < 0 {
			t.Fatalf("scripts/ci.sh has no stage %q", stage)
		}
		body := text[start+1:]
		if end := strings.Index(body, `echo "== `); end >= 0 {
			body = body[:end]
		}
		cmd, flag := knob[:strings.Index(knob, " ")], regexp.QuoteMeta(name)
		if !regexp.MustCompile(`(?m)^.*` + cmd + `\b.*\s` + flag + `(\s|=|$)`).MatchString(body) {
			t.Fatalf("ci.sh stage %q never runs %s with %s", stage, cmd, name)
		}
		return
	}
	var found bool
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case found || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(src)
		if i := strings.Index(text, "func "+smoke+"(t *testing.T)"); i >= 0 {
			body := text[i:]
			if end := strings.Index(body[1:], "\nfunc "); end >= 0 {
				body = body[:end]
			}
			if !strings.Contains(body, name) {
				t.Fatalf("%s: %s never sets %s", path, smoke, name)
			}
			found = true
		}
		return nil
	})
	if err != nil || !found {
		t.Fatalf("no test %s found (%v)", smoke, err)
	}
}

// differ fails unless the knob's two settings gave different outputs.
func differ(t *testing.T, a, b any) {
	t.Helper()
	if reflect.DeepEqual(a, b) {
		t.Fatalf("the knob changed nothing: both settings gave %v", a)
	}
	if sa, ok := a.(string); ok { // log the first line that differs
		la, lb := strings.Split(sa, "\n"), strings.Split(b.(string), "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				a, b = la[i], lb[i]
				break
			}
		}
	}
	t.Logf("%.120v -> %.120v", a, b)
}

// knobRig holds what the rows run on: the cmd binaries, a working
// directory holding the tiny PIM corpus, and memoized runs.
type knobRig struct {
	bin, dir string
	store    *reference.Store // the corpus of pimA, generated in-process

	runs map[string]cmdRun

	matcher *recon.Matcher // over the tiny corpus, built on first use
	queries []recon.Query
}

type cmdRun struct {
	out  string // stdout then stderr
	code int
}

func newKnobRig(t *testing.T) *knobRig {
	r := &knobRig{bin: t.TempDir(), dir: t.TempDir(), runs: make(map[string]cmdRun)}
	build := exec.Command("go", "build", "-o", r.bin+string(filepath.Separator),
		"./cmd/reconcile", "./cmd/reconserve", "./cmd/pimgen", "./cmd/benchtables", "./cmd/loadgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if run := r.run(t, []string{"pimgen", "-scale", "0.05", "-o", pimA}); run.code != 0 {
		t.Fatalf("pimgen: %s", run.out)
	}
	g, err := pim.Generate(pim.DatasetA(0.05))
	if err != nil {
		t.Fatal(err)
	}
	r.store = g.Store
	catalog := `{"name":"catalog","references":[{"class":"Product","atomic":{"title":["widget"]}}]}`
	if err := os.WriteFile(filepath.Join(r.dir, catalogFile), []byte(catalog), 0o644); err != nil {
		t.Fatal(err)
	}
	seeded, err := serve.NewFromStore(serve.Config{Schema: schema.PIM(), Recon: recon.DefaultConfig(),
		DataDir: filepath.Join(r.dir, seededDir)}, r.store)
	if err != nil {
		t.Fatal(err)
	}
	if err := seeded.Close(); err != nil {
		t.Fatal(err)
	}
	return r
}

// run executes argv (a cmd name and its arguments) in the rig's directory,
// once per distinct argv.
func (r *knobRig) run(t *testing.T, argv []string) cmdRun {
	t.Helper()
	key := strings.Join(argv, "\x00")
	if run, ok := r.runs[key]; ok {
		return run
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a refusal that fails may serve forever
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(r.bin, argv[0]), argv[1:]...)
	cmd.Dir = r.dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	run := cmdRun{out: stdout.String() + stderr.String()}
	if exit, ok := err.(*exec.ExitError); ok {
		run.code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", strings.Join(argv, " "), err)
	}
	r.runs[key] = run
	return run
}

// timing masks wall-clock durations, the one output that varies between
// runs of the same command.
var timing = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

// line runs a command that must succeed and returns its first output line
// containing prefix (all of the output for ""), timings masked.
func (r *knobRig) line(t *testing.T, prefix string, argv []string) string {
	t.Helper()
	run := r.run(t, argv)
	if run.code != 0 {
		t.Fatalf("%s: exit %d\n%s", strings.Join(argv, " "), run.code, run.out)
	}
	return firstLine(timing.ReplaceAllString(run.out, "T"), prefix)
}

func firstLine(out, prefix string) string {
	if prefix == "" {
		return out
	}
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, prefix) {
			return l
		}
	}
	return ""
}

// mustRefuse runs a refused combination: exit status 2 and a message that
// names the flag.
func (r *knobRig) mustRefuse(t *testing.T, knob string, argv []string) {
	t.Helper()
	run := r.run(t, argv)
	flag := knob[strings.Index(knob, " ")+1:]
	if run.code != 2 || !strings.Contains(run.out, flag) {
		t.Errorf("%s: exit %d, want 2 with a message naming %s:\n%s", strings.Join(argv, " "), run.code, flag, run.out)
	}
}

// serveLine starts reconserve with args, waits until it serves, and
// returns the first line containing what of its log followed by its
// manifest, with the manifest's JSON fields one per line.
func (r *knobRig) serveLine(t *testing.T, what string, args []string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(filepath.Join(r.bin, "reconserve"), append([]string{"-addr", addr}, args...)...)
	cmd.Dir = r.dir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { cmd.Process.Kill(); cmd.Wait() }()
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	for sc.Scan() && !strings.Contains(sc.Text(), "listening on") {
		log.WriteString(sc.Text() + "\n")
	}
	go io.Copy(io.Discard, stderr)
	var body []byte
	for try := 0; ; try++ {
		resp, err := http.Get("http://" + addr + "/")
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		if try == 50 {
			t.Fatalf("reconserve %v never served: %v\n%s", args, err, log.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	fields := strings.ReplaceAll(string(body), `,"`, ",\n\"")
	return firstLine(timing.ReplaceAllString(log.String(), "T")+fields, what)
}

// reconcile runs recon on the tiny corpus under DefaultConfig changed by
// set (nil keeps the default).
func (r *knobRig) reconcile(t *testing.T, set func(*recon.Config)) recon.Stats {
	t.Helper()
	cfg := recon.DefaultConfig()
	if set != nil {
		set(&cfg)
	}
	res, err := recon.New(schema.PIM(), cfg).Reconcile(r.store)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// service starts a service over store with the default settings changed
// by set (nil keeps them), and closes it when the test ends.
func (r *knobRig) service(t *testing.T, store *reference.Store, set func(*serve.Config)) *serve.Service {
	t.Helper()
	cfg := serve.Config{Schema: schema.PIM(), Recon: recon.DefaultConfig(), Name: "refrecon"}
	if set != nil {
		set(&cfg)
	}
	svc, err := serve.NewFromStore(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// collective resolves every fifth tiny-corpus reference that carries
// associations as a collective query, and sums what the runs did.
func (r *knobRig) collective(t *testing.T, cc collective.Config) string {
	t.Helper()
	if r.matcher == nil {
		sess := recon.New(schema.PIM(), recon.DefaultConfig()).NewSession(r.store)
		if _, err := sess.Reconcile(); err != nil {
			t.Fatal(err)
		}
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r.matcher = recon.NewMatcher(schema.PIM(), recon.DefaultConfig(), snap)
		for id := 0; id < snap.RefCount(); id += 5 {
			sr, _ := snap.Ref(reference.ID(id))
			if rec := sr.Record(); len(rec.Atomic) > 0 && len(rec.Assoc) > 0 {
				r.queries = append(r.queries, recon.Query{Class: rec.Class, Atomic: rec.Atomic, Assoc: rec.Assoc, Limit: 5})
			}
		}
	}
	cm := recon.NewCollectiveMatcher(r.matcher, cc)
	pairs, degraded := 0, map[string]int{}
	for _, q := range r.queries {
		_, st, err := cm.Match(q)
		if err != nil {
			t.Fatal(err)
		}
		pairs += st.Expansion.PairNodes
		if st.Expansion.Degraded {
			degraded[st.Expansion.Reason]++
		}
	}
	var counted int64
	if cc.Obs != nil {
		counted = cc.Obs.Counters.Snapshot().CollectiveQueries
	}
	return fmt.Sprintf("%d queries, %d pair nodes, degraded %v, %d counted", len(r.queries), pairs, degraded, counted)
}
