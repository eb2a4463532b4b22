"""The paper's primary contribution: the defect-oriented test path."""

from .advisor import (CATEGORY_GENES, EscapeDiagnosis,
                      classify_escape, diagnose_escapes,
                      recommendations, recommended_gene_flags,
                      render_advice)
from .path import (DefectOrientedTestPath, MacroAnalysis, PathConfig,
                   PathResult)
from .options import add_engine_arguments, engine_knobs
from .quality import (QualityReport, chip_fault_rate, defect_level,
                      dppm, poisson_yield, quality_report)
from .serialize import (SerializeError, load_macro_results,
                        load_path_result, save_macro_results,
                        save_path_result)
from .report import (current_signature_distribution, render_fig3,
                     render_fig4, render_macro_current_detectability,
                     render_table1, render_table2, render_table3,
                     voltage_signature_distribution)

__all__ = [
    "DefectOrientedTestPath", "MacroAnalysis", "PathConfig",
    "PathResult", "current_signature_distribution",
    "render_fig3", "render_fig4",
    "render_macro_current_detectability", "render_table1",
    "render_table2", "render_table3",
    "voltage_signature_distribution", "QualityReport",
    "chip_fault_rate", "defect_level", "dppm", "poisson_yield",
    "quality_report", "SerializeError", "load_macro_results",
    "load_path_result", "save_macro_results", "save_path_result",
    "EscapeDiagnosis",
    "CATEGORY_GENES", "classify_escape", "diagnose_escapes",
    "recommendations", "recommended_gene_flags", "render_advice", "add_engine_arguments", "engine_knobs",
]
