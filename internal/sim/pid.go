package sim

// PID is a participant's index in its run's participant table: the one table
// whoever builds the run lays out (core.World: c_0..c_N, e_0..e_{N-1}, then
// the manager and the notaries). Inside a run a participant is addressed by
// its PID — the network's node table, a ledger's accounts and a keyring's
// signers are slices indexed by it — and its name is only rendered, at the
// edge: traces, reports, outcomes.
type PID int32

// NoPID addresses nobody: Alice's upstream escrow, Bob's downstream one. A
// message sent to it is dropped.
const NoPID PID = -1
