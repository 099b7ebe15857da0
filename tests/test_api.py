import zdgspec


def test_public_api_is_the_documented_one():
    assert zdgspec.__all__ == [
        "AnalysisReport",
        "EmptyGraphError",
        "OracleCapError",
        "SpectrumAssembly",
        "SpectrumMultiset",
        "analyze",
        "brute_spectrum",
        "exact_total_spectrum",
        "prime_power_spectrum",
        "reduced_spectrum",
    ]
    assert all(hasattr(zdgspec, name) for name in zdgspec.__all__)
