//! Retargeting demonstration (Section 4.2 of the paper): compile the same
//! program for a whole family of ASIP configurations by varying the
//! generic parameters — bitwidth, register count, optional functional
//! units — and watch code size and speed respond.
//!
//! "ASIPs frequently come with generic parameters … The user should at
//! least be able to retarget a compiler to every set of parameter values."
//!
//! ```sh
//! cargo run --example retarget_asip
//! ```

use std::collections::HashMap;

use record::{CompileRequest, Compiler};
use record_ir::Symbol;
use record_isa::targets::asip::{build, AsipParams};
use record_sim::run_program;

const PROGRAM: &str = "
    program fir8;
    const N = 8;
    in c: fix[N];
    in x: fix[N];
    out y: fix;
    begin
      y := 0;
      for i in 0..N-1 loop
        y := y + c[i] * x[i];
      end loop;
    end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let configs: Vec<(&str, AsipParams)> = vec![
        ("minimal + AGU", {
            let mut p = AsipParams::minimal();
            // the FIR loop needs two address streams
            p.n_ars = 2;
            p.has_mul = true; // the kernel multiplies arbitrary samples
            p
        }),
        ("default", AsipParams::default()),
        ("DSP (MAC + RPT + AGU)", AsipParams::dsp()),
        ("DSP, 24-bit datapath", {
            let mut p = AsipParams::dsp();
            p.word_width = 24;
            p
        }),
    ];

    let inputs: HashMap<Symbol, Vec<i64>> =
        [(Symbol::new("c"), (1..=8).collect()), (Symbol::new("x"), (1..=8).rev().collect())]
            .into_iter()
            .collect();
    let expected: i64 = (1..=8i64).zip((1..=8i64).rev()).map(|(a, b)| a * b).sum();

    println!("{:<24} {:>6} {:>8} {:>8}", "configuration", "words", "cycles", "y");
    println!("{:-<50}", "");
    for (label, params) in configs {
        // THE retargeting step: a new compiler from a parameter set
        let target = build(&params);
        let compiler = Compiler::for_target(target.clone())?;
        let code = compiler.compile(PROGRAM, CompileRequest::default())?.code;
        let (out, run) = run_program(&code, &target, &inputs)?;
        let y = out[&Symbol::new("y")][0];
        println!("{label:<24} {:>6} {:>8} {y:>8}", code.size_words(), run.cycles);
        assert_eq!(y, expected, "{label}: wrong result");
    }
    println!("\n(the MAC + hardware-repeat configuration wins on both axes,");
    println!(" which is exactly why ASIP designers add those units)");
    Ok(())
}
