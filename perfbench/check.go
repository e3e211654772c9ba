package main

import (
	"fmt"

	"schedfilter/internal/bytecode"
	"schedfilter/internal/core"
	"schedfilter/internal/features"
	"schedfilter/internal/interp"
	"schedfilter/internal/jit"
	"schedfilter/internal/jolt"
	"schedfilter/internal/machine"
	"schedfilter/internal/sched"
	"schedfilter/internal/server"
)

// The oracles every run checks its outputs against. None compares with a
// stored copy of earlier output: each recomputes the answer through an
// independent path (the bytecode interpreter, the reference scheduler,
// the estimator) or checks a property every correct output has.

// interpStepLimit bounds the interpreter on generated programs, which
// use counted loops only and finish in far fewer steps.
const interpStepLimit = 1 << 24

// scheduleWant is what a /v1/schedule response must report for one
// program under one policy.
type scheduleWant struct {
	blocks, approved      int
	costBefore, costAfter int64
}

// wantSchedule recomputes a scheduling pass without the server, the
// block cache or the fast scheduler: a separately compiled copy, the
// policy's decision per block, the estimator on each approved block's
// original order, and the estimator on the reference scheduler's order.
func wantSchedule(m *machine.Model, f core.Filter, src string, opts jit.Options) (scheduleWant, error) {
	var w scheduleWant
	mod, err := jolt.Compile(src)
	if err != nil {
		return w, err
	}
	prog, err := jit.Compile(mod, opts)
	if err != nil {
		return w, err
	}
	for _, fn := range prog.Fns {
		for _, b := range fn.Blocks {
			w.blocks++
			if yes, _ := f.Decide(features.ExtractBlock(b)); !yes {
				continue
			}
			w.approved++
			w.costBefore += int64(machine.EstimateBlockCost(m, b))
			ref := sched.ScheduleInstrsReference(m, b.Instrs)
			w.costAfter += int64(machine.EstimateCost(m, ref.Apply(b.Instrs)))
		}
	}
	return w, nil
}

// checkSchedule compares a /v1/schedule response with the recomputed
// pass.
func checkSchedule(got *server.ScheduleResponse, want scheduleWant) error {
	switch {
	case got.Blocks != got.Scheduled+got.NotScheduled:
		return fmt.Errorf("blocks %d != scheduled %d + not_scheduled %d", got.Blocks, got.Scheduled, got.NotScheduled)
	case got.Blocks != want.blocks:
		return fmt.Errorf("blocks %d, separately compiled copy has %d", got.Blocks, want.blocks)
	case got.Scheduled != want.approved:
		return fmt.Errorf("scheduled %d, policy approves %d", got.Scheduled, want.approved)
	case got.CostBefore != want.costBefore:
		return fmt.Errorf("cost_before %d, estimator says %d", got.CostBefore, want.costBefore)
	case got.CostAfter != want.costAfter:
		return fmt.Errorf("cost_after %d, reference scheduler gives %d", got.CostAfter, want.costAfter)
	}
	return nil
}

// wantRun is a program's return value and printed output under the
// bytecode interpreter.
func wantRun(src string) (*interp.Result, error) {
	mod, err := jolt.Compile(src)
	if err != nil {
		return nil, err
	}
	return interpret(mod)
}

func interpret(mod *bytecode.Module) (*interp.Result, error) {
	return interp.Run(mod, interpStepLimit)
}

func checkRun(ret int64, output []string, want *interp.Result) error {
	if ret != want.Ret {
		return fmt.Errorf("ret %d, interpreter says %d", ret, want.Ret)
	}
	if len(output) != len(want.Output) {
		return fmt.Errorf("%d output lines, interpreter prints %d", len(output), len(want.Output))
	}
	for i := range output {
		if output[i] != want.Output[i] {
			return fmt.Errorf("output[%d] %q, interpreter prints %q", i, output[i], want.Output[i])
		}
	}
	return nil
}

// sameWork checks the property of the paper's evaluation that scheduling
// reorders instructions but never changes what runs: every run of one
// program, under NS, LS or an induced filter, executes the same number of
// instructions and returns the same value. Runs of one (program, policy)
// pair must also take the same number of cycles.
type sameWork struct {
	first  map[int][2]int64 // program → (dyn_instrs, ret) of its first run
	cycles map[[2]int]int64 // (program, policy) → cycles of its first run
}

func newSameWork() *sameWork {
	return &sameWork{first: map[int][2]int64{}, cycles: map[[2]int]int64{}}
}

func (s *sameWork) check(prog, policy int, dyn, ret, cycles int64) error {
	if f, ok := s.first[prog]; !ok {
		s.first[prog] = [2]int64{dyn, ret}
	} else if f != [2]int64{dyn, ret} {
		return fmt.Errorf("dyn_instrs %d ret %d, another run of the program had dyn_instrs %d ret %d", dyn, ret, f[0], f[1])
	}
	key := [2]int{prog, policy}
	if c, ok := s.cycles[key]; !ok {
		s.cycles[key] = cycles
	} else if c != cycles {
		return fmt.Errorf("%d cycles, an earlier run of the same program and policy took %d", cycles, c)
	}
	return nil
}
