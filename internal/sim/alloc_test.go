package sim

import (
	"fmt"
	"runtime"
	"testing"

	"schedfilter/internal/interp"
	"schedfilter/internal/ir"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/workloads"
)

// dirtyThenAllocSrc recurses with more live locals than registers, so
// every frame spills non-zero words near the top of memory, then returns
// and allocates an array that reaches down into those words. main returns
// the number of array elements that do not read 0. The two verbs are the
// recursion depth and the array length.
const dirtyThenAllocSrc = `
func dirty(n int, seed int) int {
  var a int = seed * 3 + 1; var b int = a * 5 + 2; var c int = b + a + 3;
  var d int = c * 7 + b; var e int = d + c + 5; var f int = e * 3 + d;
  var g int = f + e + 7; var h int = g * 5 + f; var i int = h + g + 9;
  var j int = i * 3 + h; var k int = j + i + 11; var l int = k * 7 + j;
  var m int = l + k + 13; var o int = m * 3 + l; var p int = o + m + 15;
  var q int = p * 5 + o; var r int = q + p + 17;
  if (n <= 0) {
    return a + b + c + d + e + f + g + h + i + j + k + l + m + o + p + q + r;
  }
  var sub int = dirty(n - 1, seed + n);
  return (sub + a + b + c + d + e + f + g + h + i + j + k + l + m + o + p + q + r) %% 1000003;
}
func main() int {
  print(dirty(%d, 1));
  var arr int[] = new int[%d];
  var bad int = 0;
  for (var x int = 0; x < len(arr); x = x + 1) {
    if (arr[x] != 0) { bad = bad + 1; }
  }
  return bad;
}`

// TestAllocClearsDirtiedStack is the regression test for ALLOC's zeroing
// on paged memory: heap that grows into a page a deeper stack frame left
// resident must still read 0, as the interpreter's arrays do. The array
// spans the globals' page, two absent pages and the stack's page.
func TestAllocClearsDirtiedStack(t *testing.T) {
	const (
		words  = 4 * pageWords
		depth  = 300
		arrLen = words - 1024
	)
	mod, err := jolt.Compile(fmt.Sprintf(dirtyThenAllocSrc, depth, arrLen))
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(mod, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jit.Compile(mod, jit.Options{Inline: false})
	if err != nil {
		t.Fatal(err)
	}
	// The test means something only if the recursion's frames reach
	// below the end of the array.
	if low := words - depth*prog.FnByName("dirty").FrameSlots; low >= GlobalBase+arrLen {
		t.Fatalf("recursion reaches down to word %d only, above the array's end %d", low, GlobalBase+arrLen)
	}
	got, err := Run(prog, Config{MemWords: words})
	if err != nil {
		t.Fatal(err)
	}
	if got.Ret != 0 {
		t.Errorf("%d array elements read non-zero after ALLOC", got.Ret)
	}
	if got.Ret != want.Ret || len(got.Output) != len(want.Output) || got.Output[0] != want.Output[0] {
		t.Errorf("sim returned %d with output %v, interpreter %d with %v", got.Ret, got.Output, want.Ret, want.Output)
	}
}

// TestAllocMaterializesNoPages: an allocation over never-touched memory
// makes resident only the page of its length header, and storing 0 into
// the array adds none.
func TestAllocMaterializesNoPages(t *testing.T) {
	st := NewState(4 * pageWords)
	st.Regs[1] = st.mem.words // stack pointer at the top, as Run sets it
	b := &ir.Block{Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(4)}, Imm: 3 * pageWords},
		{Op: ir.ALLOC, Defs: []ir.Reg{ir.GPR(5)}, Uses: []ir.Reg{ir.GPR(4)}},
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(6)}, Imm: 0},
		{Op: ir.ST, Uses: []ir.Reg{ir.GPR(6), ir.GPR(5)}, Imm: 2 * pageWords},
		{Op: ir.STX, Uses: []ir.Reg{ir.GPR(6), ir.GPR(5), ir.GPR(4)}},
	}}
	if err := ExecBlock(st, b); err != nil {
		t.Fatal(err)
	}
	if n := residentPages(&st.mem); n != 1 {
		t.Errorf("%d pages resident, want 1 (the length header's)", n)
	}
	if v, err := st.load(st.Regs[5], "test"); err != nil || v != 3*pageWords {
		t.Errorf("length header reads %d (%v), want %d", v, err, 3*pageWords)
	}
}

func returnOneProg() *ir.Program {
	return buildProg([]*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.LI, Defs: []ir.Reg{ir.GPR(3)}, Imm: 1},
		{Op: ir.BLR, Uses: []ir.Reg{ir.GPR(3)}},
	}}})
}

// TestRunAllocs gates what a run costs before it executes anything: a
// trivial program must not pay for the whole default address space.
func TestRunAllocs(t *testing.T) {
	const runs = 20
	p := returnOneProg()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(p, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 256<<10 {
		t.Errorf("a return-1 run allocates %d bytes, want under 256 KiB", perRun)
	}
}

var benchSink *Result

func BenchmarkRun(b *testing.B) {
	w := workloads.ByName("compress")
	mod, err := w.CompileWithOptions(jolt.Options{UnrollFactor: 4})
	if err != nil {
		b.Fatal(err)
	}
	compress, err := jit.Compile(mod, jit.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *ir.Program
	}{{"return1", returnOneProg()}, {"compress", compress}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := Config{Timed: true, Model: machine.Default().Model}
			for i := 0; i < b.N; i++ {
				res, err := Run(c.prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}
