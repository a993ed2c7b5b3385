"""Exact homology and open book structures for generic intersections of quadrics."""

from types import ModuleType as _ModuleType

from .configuration import (
    Configuration,
    ConfigurationError,
    InvalidConfigurationError,
    NormalFormError,
    OpenBookError,
    OracleMismatchError,
    ParseError,
    QuadbookError,
    SizeCapError,
    ValidationReport,
    complexify,
    delete_coordinate,
    duplicate_coordinate,
    make_configuration,
    validate,
)
from .complexes import GradedGroup, pair_homology
from .splitting import (
    DEFAULT_SUBSET_CAP,
    SplittingLedger,
    euler_cellcount,
    homology_Z,
    homology_ZC,
    homology_Zplus,
    splitting_ledger,
)
from .classify import (
    CyclicPartition,
    ManifoldDescription,
    SphereProduct,
    classify_complex,
    classify_real,
    d_values,
    double_partition,
    expected_homology,
    normal_form,
    normal_form_labelled,
    partition_configuration,
    rotate_parts,
)
from .openbook import (
    CheckResult,
    ExteriorSpace,
    OpenBookStructure,
    PageDescription,
    ProductPiece,
    PuncturedProduct,
    boundary_consistency,
    exterior_homology,
    open_book_complex,
    open_book_real,
    page_homology,
    page_topology,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
