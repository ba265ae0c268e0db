// Package ga implements the paper's second scheduling method
// (Section III-B): a multi-objective genetic algorithm over the per-job
// start times κ that maximises both Ψ (the fraction of exactly
// timing-accurate jobs) and Υ (the normalised total quality).
//
// The encoding and operators follow the paper:
//
//   - the chromosome is the vector of start times κi^j, one gene per job;
//   - Constraint 1 (window containment) is enforced structurally: genes are
//     initialised and mutated inside the timing boundary
//     [Ti·j + δi − θi, Ti·j + δi + θi], clamped to the feasible window;
//   - Constraint 2 (non-overlap) is enforced by a reconfiguration function
//     applied before the objectives: jobs are laid out in gene order,
//     overlaps are resolved by delaying later jobs while preserving the
//     order (ties broken by priority), and each job is snapped to its ideal
//     instant when that is possible without disturbing the order;
//   - an individual that is infeasible after reconfiguration scores −1 on
//     both objectives;
//   - the population spreads its objective weights uniformly from (1.0, 0)
//     to (0, 1.0) so different slots press towards different ends of the
//     Pareto front;
//   - all non-dominated solutions found during the search are returned.
//
// The fitness hot path does no per-evaluation or per-generation work that
// depends only on the job set. A plan built once per Solve holds each
// job's static tie-break rank (priority descending, then ID.Task, then
// ID.J) and Υ's normaliser Σ V(δ). The layout sorts (gene, rank) keys,
// which are unique, with an insertion sort; the keys are laid down in
// ascending gene-window order, so they arrive nearly sorted. Scoring
// takes the same per-job terms in the same order as quality.Psi and
// quality.Upsilon, so the results match them bit for bit.
//
// The population is double-buffered: the parents and the children each
// own one gene buffer per slot, carved from a single arena, and children
// are bred in place. Slot elitism keeps a better parent by swapping it
// with the child instead of copying it, so each buffer keeps exactly one
// owner. One random source serves the whole run and is reseeded per
// generation, which draws exactly the sequence a fresh source would.
package ga
