//! One module per paper artifact, named after the table or figure it
//! regenerates; the `repro` binary (`src/bin/repro.rs`) lists them all.

pub mod ablation;
pub mod aia;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod mnist;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
