//! [`Wire`](runtime::wire::Wire) layouts of the software-exploration
//! types that cross the wire.

use runtime::wire_struct;

use crate::explorer::ExplorerOptions;
use crate::schedule::Schedule;

wire_struct!(ExplorerOptions {
    pool,
    rounds,
    top_k,
    max_pool,
    use_qlearning,
    fixed_choice,
});
wire_struct!(Schedule {
    choice,
    tiles,
    outer_order,
    fuse_outer,
});
