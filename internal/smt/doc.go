// Package smt implements the QF_BV satisfiability solver behind every
// verification verdict: a decision procedure for conjunctions of
// bitvector constraints over internal/expr terms, built as a layered
// pipeline of cheap passes in front of a CDCL SAT core.
//
// Every query runs through one path, IncrementalSession.Check: the cheap
// passes of Solver.preSolve (1-3), then the session's SAT instance
// (4-5):
//
//  1. conjunction flattening and constant folding — most symbolic-
//     execution queries die here;
//  2. canonical ordering + dedup and an order-insensitive verdict cache
//     keyed by the terms' memoized structural hashes;
//  3. an interval pre-analysis that decides many comparisons without
//     blasting (intervals.go);
//  4. structurally-hashed bit-blasting to CNF with AIG-style gate
//     sharing (cnf.go, DESIGN.md §4.1) and a MiniSat/glucose-flavored
//     CDCL core: arena clause storage, binary watch lists, recursive
//     learnt-clause minimization, LBD-based clause-DB reduction, Luby
//     restarts (sat.go, DESIGN.md §4.2);
//  5. self-subsumption strengthening of the CNF whenever it has grown
//     enough to repay a pass, and a conflict/wall-clock budget on every
//     search whose exhaustion yields Unknown, never a verdict
//     (preprocess.go, DESIGN.md §4.3).
//
// IncrementalSession (DESIGN.md §2) keeps one persistent SAT instance
// per caller: each distinct atom is blasted once behind an activation
// guard, queries assert their atom set as assumptions, and learnt
// clauses carry over between queries. The verifier's workers and the
// symbolic-execution engines each own a session; a caller that wants
// an independent answer opens a throwaway one. The Solver itself holds
// the options, statistics and verdict cache its sessions share, and is
// safe for concurrent use by many sessions.
//
// Sat verdicts come with a model (expr.Assignment) that the verifier
// turns into concrete witness packets; Stats counters flow up into
// verify.Stats and the vsdbench -json records (EXPERIMENTS.md).
package smt
