//! Self-test program generation (Section 4.5): "a special retargetable
//! compiler that is able to propagate values just like ATPG tools".
//!
//! For two targets — the hand-described C25 model and a compiler-generated
//! ASIP — the example generates a self-test program, reports instruction
//! coverage, and then injects stuck-at faults into every computational
//! instruction to measure the signature's fault detection rate.
//!
//! ```sh
//! cargo run --example selftest_generation
//! ```

use record::selftest::{detects_fault, generate};
use record_isa::TargetDesc;

fn demo(target: &TargetDesc) -> Result<(), Box<dyn std::error::Error>> {
    let st = generate(target, 0xD5E)?;
    println!("=== {} ===", target.name);
    println!(
        "covered {}/{} testable rules ({:.0}% coverage), program size {} words",
        st.covered.len(),
        st.covered.len() + st.uncovered.len(),
        st.coverage() * 100.0,
        st.code.size_words()
    );
    if !st.uncovered.is_empty() {
        let names: Vec<&str> = st.uncovered.iter().map(|r| target.rule(*r).asm.as_str()).collect();
        println!("untestable (shadowed by structurally identical rules): {names:?}");
    }
    println!("fault-free signature: {:#06x}", st.signature & 0xffff);

    let mut tested = 0u32;
    let mut detected = 0u32;
    for victim in 0..st.code.insns.len() {
        if let Some(hit) = detects_fault(&st, target, victim) {
            tested += 1;
            detected += u32::from(hit);
        }
    }
    println!("stuck-at-zero fault injection: {detected}/{tested} faults change the signature\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    demo(&record_isa::targets::tic25::target())?;
    demo(&record_isa::cube::CubeParams::asip_dsp().build()?)?;
    // even a compiler generated from a netlist can test its own processor
    let netlist = record_ise::demo::acc_machine_netlist();
    let (compiler, _) = record::Compiler::from_netlist("accgen", &netlist, &Default::default())?;
    demo(compiler.target())?;
    Ok(())
}
