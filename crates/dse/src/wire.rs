//! [`Wire`](runtime::wire::Wire) layouts of the optimizer results that
//! cross the wire.

use runtime::wire_struct;

use crate::problem::{Evaluation, OptimizerResult};

wire_struct!(Evaluation { point, objectives });
wire_struct!(OptimizerResult {
    optimizer,
    evaluations,
    infeasible,
});
