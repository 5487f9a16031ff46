// Transaction commitment: the paper's motivating application. Five
// resource managers vote on committing a distributed transaction; the
// protocol must reach the unanimity decision under total consistency —
// a decided processor may have dispensed money, so even the decisions of
// since-failed processors bind the survivors.
//
// The example contrasts three protocols from the library:
//
//   - TwoPhaseCommit: classic 2PC — cheap, but only interactively
//     consistent: a coordinator that commits and fails can strand the
//     survivors with an abort (the blocking hazard);
//   - AckCommit: the safe two-phase discipline (no commit before everyone
//     acknowledges the committable bias) — weakly terminating WT-TC;
//   - HaltingCommit: the same discipline plus decision broadcasts, letting
//     every processor halt (HT-TC).
package main

import (
	"fmt"
	"log"

	consensus "repro"
)

const managers = 5

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	votes := consensus.MustInputs("11111") // all managers vote yes

	fmt.Println("=== distributed transaction commit, 5 resource managers ===")

	// Happy path: everyone commits, with every protocol.
	for _, proto := range []consensus.Protocol{
		consensus.TwoPhaseCommit(managers),
		consensus.AckCommit(managers),
		consensus.HaltingCommit(managers),
	} {
		execution, err := consensus.Run(proto, votes, 1)
		if err != nil {
			return err
		}
		d, _ := execution.DecisionOf(0)
		fmt.Printf("  %-18s all yes → %s (%d messages)\n", proto.Name(), d, execution.MessagesSent())
	}

	// One no-vote aborts the transaction.
	oneNo := consensus.MustInputs("11011")
	execution, err := consensus.Run(consensus.AckCommit(managers), oneNo, 1)
	if err != nil {
		return err
	}
	d, _ := execution.DecisionOf(0)
	fmt.Printf("  %-18s one no   → %s\n\n", consensus.AckCommit(managers).Name(), d)

	// The hazard: with classic 2PC, the coordinator can commit and fail
	// before telling anyone. The survivors, seeing only failures, abort —
	// total consistency is violated (the coordinator may already have
	// dispensed money). The model checker finds this automatically.
	fmt.Println("=== why interactive consistency is not enough ===")
	x, err := consensus.Check(consensus.TwoPhaseCommit(3), consensus.UnanimityProblem(consensus.WT, consensus.TC),
		consensus.CheckOptions{MaxFailures: 2, StopAtFirstViolation: true, TrackTraces: true})
	if err != nil {
		return err
	}
	if x.Conforms() {
		return fmt.Errorf("2pc unexpectedly satisfies WT-TC")
	}
	fmt.Printf("  2pc(3) vs WT-TC: %s\n", x.Violations[0])
	fmt.Println("  trace to the violation:")
	for _, line := range x.FirstTraceLines() {
		fmt.Println("    " + line)
	}

	// The safe protocol survives the same adversary: exhaustively, no
	// run of AckCommit violates total consistency.
	fmt.Println("\n=== the safe two-phase discipline ===")
	x2, err := consensus.Check(consensus.AckCommit(3), consensus.UnanimityProblem(consensus.WT, consensus.TC),
		consensus.CheckOptions{MaxFailures: 2})
	if err != nil {
		return err
	}
	if !x2.Conforms() {
		return fmt.Errorf("ackcommit violation: %v", x2.Violations[0])
	}
	fmt.Printf("  ackcommit(3) vs WT-TC: conforms over %d configurations (≤2 failures)\n", x2.NodeCount)

	// Theorem 2 in action: every accessible state of the safe protocol is
	// safe; classic 2PC has unsafe states (a commit concurrent with an
	// uncertain participant whose state does not imply all-ones).
	repSafe := x2.Safety()
	fmt.Printf("  ackcommit(3): %d states, %d unsafe\n", repSafe.TotalStates, len(repSafe.Unsafe))
	x2pc, err := consensus.Explore(consensus.TwoPhaseCommit(3), consensus.CheckOptions{MaxFailures: 1})
	if err != nil {
		return err
	}
	rep2pc := x2pc.Safety()
	fmt.Printf("  2pc(3):       %d states, %d unsafe (Theorem 2 explains the blocking hazard)\n",
		rep2pc.TotalStates, len(rep2pc.Unsafe))

	// Crash the coordinator mid-commit with the halting protocol: the
	// survivors still agree, and everyone halts.
	fmt.Println("\n=== coordinator crash with HaltingCommit ===")
	crashed, err := consensus.RunWithOptions(consensus.HaltingCommit(managers), votes,
		consensus.RunnerOptions{Seed: 9, Failures: []consensus.FailureAt{{Proc: 0, AfterStep: 12}}})
	if err != nil {
		return err
	}
	for p := 0; p < managers; p++ {
		pid := consensus.ProcID(p)
		status := "undecided"
		if d, ok := crashed.DecisionOf(pid); ok {
			status = d.String()
		}
		if !crashed.Nonfaulty(pid) {
			status += " (failed)"
		}
		fmt.Printf("  %s: %s\n", pid, status)
	}
	return nil
}
