//! Quickstart: compile a small DSP program for the TMS320C25-like core,
//! print the assembly, run it on the simulator.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::collections::HashMap;

use record::{CompileRequest, Compiler};
use record_ir::Symbol;
use record_sim::run_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. pick a target — the explicit processor description is what makes
    //    the compiler retargetable
    let target = record_isa::targets::tic25::target();
    let compiler = Compiler::for_target(target.clone())?;

    // 2. a mini-DFL program: one multiply-accumulate over two arrays
    let source = "
        program quickstart;
        const N = 8;
        in a: fix[N];
        in b: fix[N];
        out y: fix;
        begin
          y := 0;
          for i in 0..N-1 loop
            y := y + a[i] * b[i];
          end loop;
        end
    ";
    let code = compiler.compile(source, CompileRequest::default())?.code;

    // 3. inspect the generated code
    println!("{}", code.render());
    println!("binary image: {} words", record::emit::encode(&code).len());

    // 4. execute it
    let inputs: HashMap<Symbol, Vec<i64>> = [
        (Symbol::new("a"), (1..=8).collect()),
        (Symbol::new("b"), (1..=8).map(|v| v * 2).collect()),
    ]
    .into_iter()
    .collect();
    let (outputs, run) = run_program(&code, &target, &inputs)?;
    println!(
        "y = {}   ({} cycles, {} instructions executed)",
        outputs[&Symbol::new("y")][0],
        run.cycles,
        run.insns
    );
    assert_eq!(outputs[&Symbol::new("y")][0], (1..=8i64).map(|v| v * v * 2).sum::<i64>());
    Ok(())
}
