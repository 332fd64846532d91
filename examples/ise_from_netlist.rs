//! Figure 2's left branch, end to end: an RT-level netlist goes in, a
//! working compiler comes out — no hand-written instruction-set
//! description anywhere. This is the bridge "between electronic CAD and
//! compiler generation" the paper's conclusion highlights.
//!
//! The example first reproduces Fig. 3's extraction on the register-file
//! netlist, then generates a compiler for the small accumulator machine
//! and runs compiled code on it.
//!
//! ```sh
//! cargo run --example ise_from_netlist
//! ```

use std::collections::HashMap;

use record::{CompileRequest, Compiler};
use record_ir::Symbol;
use record_sim::run_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Fig. 3: what instruction-set extraction sees -------------------
    println!("=== Fig. 3 netlist: extracted instructions ===");
    let fig3 = record_ise::demo::fig3_netlist();
    for insn in record_ise::extract(&fig3)? {
        println!("  {insn}");
    }

    // --- a complete machine: netlist -> ISE -> compiler -> execution ----
    println!("\n=== accumulator machine: netlist to running code ===");
    let netlist = record_ise::demo::acc_machine_netlist();
    let extracted = record_ise::extract(&netlist)?;
    println!("extracted {} instruction alternatives:", extracted.len());
    for insn in &extracted {
        println!("  {insn}");
    }

    let (compiler, skipped) = Compiler::from_netlist("accgen", &netlist, &Default::default())?;
    println!(
        "\ngenerated target `{}`: {} rules ({} extracted forms unmapped)",
        compiler.target().name,
        compiler.target().rules.len(),
        skipped
    );

    let code = compiler
        .compile(
            "program demo;
         in a, b: fix;
         out u, v: fix;
         begin
           u := a * b + 5;
           v := a - b - 1;
         end",
            CompileRequest::default(),
        )?
        .code;
    println!("\n{}", code.render());

    let inputs: HashMap<Symbol, Vec<i64>> =
        [(Symbol::new("a"), vec![7]), (Symbol::new("b"), vec![3])].into_iter().collect();
    let (out, run) = run_program(&code, compiler.target(), &inputs)?;
    println!(
        "u = {}, v = {}   ({} cycles)",
        out[&Symbol::new("u")][0],
        out[&Symbol::new("v")][0],
        run.cycles
    );
    assert_eq!(out[&Symbol::new("u")][0], 7 * 3 + 5);
    assert_eq!(out[&Symbol::new("v")][0], 7 - 3 - 1);
    Ok(())
}
